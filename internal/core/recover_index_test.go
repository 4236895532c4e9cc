package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jportal/internal/bytecode"
)

// TestAnchorVisitMatchesScan: what a caller of the anchor index observes
// is the positions visit yields once its suffix check has rejected the
// bucket mates of other anchors. For every anchor those must be exactly a
// brute-force scan's, in (segment, position) order, with nothing from a
// nil or quarantined flow, and every position visit yields must lie in its
// flow, in that order too. Random threads of 1 to 230 flows mix repetitive
// motifs with nil flows, quarantined flows and flows shorter than the
// anchor; each is queried at AnchorLen 0, 1, 4 and 8 from cold segments,
// then again from segments last prepared for another anchor length. The
// queries are every anchor of every flow, absent anchors, and random
// hashes, some sharing a real anchor's bucket bits.
func TestAnchorVisitMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var vocab []Token
	for i := 0; i < 60; i++ {
		vocab = append(vocab, Token{Op: bytecode.ILOAD, Method: bytecode.MethodID(i % 5), PC: int32(i)})
	}
	vocab = append(vocab, tok(bytecode.ILOAD), tok(bytecode.IADD), tok(bytecode.INVOKESTATIC),
		tok(bytecode.RETURN), dtok(bytecode.IFEQ, true), dtok(bytecode.IFEQ, false))
	mkFlows := func(n int) []*SegmentFlow {
		flows := make([]*SegmentFlow, n)
		for i := range flows {
			switch rng.Intn(8) {
			case 0:
				continue // nil
			case 1:
				flows[i] = &SegmentFlow{Seg: &Segment{Tokens: make([]Token, rng.Intn(9))}}
				for j := range flows[i].Seg.Tokens {
					flows[i].Seg.Tokens[j] = vocab[rng.Intn(len(vocab))]
				}
				continue // shorter than some anchors
			}
			toks := make([]Token, rng.Intn(300))
			motif := rng.Intn(6) + 1
			for j := range toks {
				if j >= motif && rng.Intn(10) != 0 {
					toks[j] = toks[j-motif] // repeats share anchors
				} else {
					toks[j] = vocab[rng.Intn(len(vocab))]
				}
			}
			flows[i] = &SegmentFlow{Seg: &Segment{Tokens: toks}, Quarantined: rng.Intn(6) == 0}
		}
		return flows
	}

	type window [8]uint64
	rejected := 0
	for _, n := range []int{1, 2, 3, 7, 40, 230} {
		flows := mkFlows(n)
		keys := make([][]uint64, len(flows))
		for si, f := range flows {
			if f != nil {
				keys[si] = appendKeys([]uint64{}, f.Seg.Tokens)
			}
		}
		for _, x := range []int{0, 1, 4, 8, 1, 0, 8, 4} {
			rcfg := DefaultRecoveryConfig()
			rcfg.AnchorLen = x
			r := NewRecoverer(nil, flows, rcfg)
			first := max(x-1, 0)

			// The scan: every anchor's positions, and every position's
			// hash, in (segment, position) order.
			want := map[window][]anchorPos{}
			byHash := map[uint64][]anchorPos{}
			var queries [][]uint64
			for si, k := range keys {
				for i := first; i < len(k); i++ {
					var w window
					copy(w[:], k[i+1-x:i+1])
					ap := anchorPos{seg: int32(si), pos: int32(i + 1)}
					if _, ok := want[w]; !ok {
						want[w] = nil
						queries = append(queries, k[i+1-x:i+1])
					}
					if n < 2 || flows[si].Quarantined {
						continue // the quarantined flow's anchors are queried, not found
					}
					want[w] = append(want[w], ap)
					h := anchorHash(k, i, x)
					byHash[h] = append(byHash[h], ap)
				}
			}
			for range 20 {
				q := make([]uint64, x)
				for j := range q {
					q[j] = 1<<62 | rng.Uint64()>>2 // no MatchKey has bit 62 alone
				}
				queries = append(queries, q)
			}

			// visit checks the order and range of everything h's visit
			// yields and returns it.
			visit := func(h uint64) []anchorPos {
				var all []anchorPos
				r.visit(h, func(ap anchorPos) {
					if l := len(all); l > 0 && (ap.seg < all[l-1].seg || ap.seg == all[l-1].seg && ap.pos <= all[l-1].pos) {
						t.Fatalf("%d flows, AnchorLen %d: visit yields %v after %v", n, x, ap, all[l-1])
					}
					if p := int(ap.pos); r.keys[ap.seg] == nil || p < max(x, 1) || p > len(r.keys[ap.seg]) {
						t.Fatalf("%d flows, AnchorLen %d: visit yields %v outside its flow", n, x, ap)
					}
					all = append(all, ap)
				})
				return all
			}

			for _, q := range queries {
				var got []anchorPos
				for _, ap := range visit(anchorHash(q, x-1, x)) {
					if suffixKeys(q, x, r.keys[ap.seg], int(ap.pos)) >= x {
						got = append(got, ap)
					} else {
						rejected++
					}
				}
				var w window
				copy(w[:], q)
				if !reflect.DeepEqual(got, want[w]) {
					t.Fatalf("%d flows, AnchorLen %d, anchor %x: visit yields %v, scan %v", n, x, q, got, want[w])
				}
			}

			// Random hashes, half of them in a real anchor's buckets:
			// the positions whose own hash is h are exactly the scan's.
			for k := range 40 {
				h := rng.Uint64()
				if q := queries[rng.Intn(len(queries))]; k%2 == 0 {
					h = anchorHash(q, x-1, x) ^ rng.Uint64()<<32
				}
				var got []anchorPos
				for _, ap := range visit(h) {
					if anchorHash(r.keys[ap.seg], int(ap.pos)-1, x) == h {
						got = append(got, ap)
					}
				}
				if !reflect.DeepEqual(got, byHash[h]) {
					t.Fatalf("%d flows, AnchorLen %d, hash %#x: visit yields %v, scan %v", n, x, h, got, byHash[h])
				}
			}
		}
	}
	// Some bucket held another anchor's positions, which the suffix
	// check rejected: sharing was exercised.
	if rejected == 0 {
		t.Fatal("no visit yielded another anchor's position")
	}
}
