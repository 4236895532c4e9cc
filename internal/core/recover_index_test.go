package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jportal/internal/bytecode"
)

// TestAnchorIndexMatchesScan: the anchor index is bucketed, so a bucket
// lists other anchors' positions too. Once the suffix check every caller
// makes has rejected those, the positions visit yields for an anchor must
// be exactly a brute-force scan's, in (segment, position) order, and the
// quarantined flow must contribute none. The queried anchors outnumber
// the buckets, and some bucket holds several indexed anchors, so sharing
// is exercised.
func TestAnchorIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// A vocabulary of located and interpreter tokens.
	var vocab []Token
	for i := 0; i < 300; i++ {
		vocab = append(vocab, Token{Op: bytecode.ILOAD, Method: bytecode.MethodID(i % 7), PC: int32(i)})
	}
	for _, op := range []bytecode.Opcode{bytecode.ILOAD, bytecode.ICONST, bytecode.IADD, bytecode.GOTO} {
		vocab = append(vocab, tok(op))
	}
	vocab = append(vocab, dtok(bytecode.IFEQ, true), dtok(bytecode.IFEQ, false))
	// Repetitive flows: short motifs from the vocabulary, concatenated,
	// with an occasional token substituted.
	motifs := make([][]Token, 16)
	for i := range motifs {
		for n := 3 + rng.Intn(10); n > 0; n-- {
			motifs[i] = append(motifs[i], vocab[rng.Intn(len(vocab))])
		}
	}
	mkFlows := func() []*SegmentFlow {
		flows := make([]*SegmentFlow, 6)
		for i := range flows {
			var toks []Token
			for len(toks) < 150+rng.Intn(150) {
				for _, tk := range motifs[rng.Intn(len(motifs))] {
					if rng.Intn(20) == 0 {
						tk = vocab[rng.Intn(len(vocab))]
					}
					toks = append(toks, tk)
				}
			}
			flows[i] = &SegmentFlow{Seg: &Segment{Tokens: toks}}
		}
		flows[2].Quarantined = true
		return flows
	}

	for _, x := range []int{1, 4} {
		flows := mkFlows()
		rcfg := DefaultRecoveryConfig()
		rcfg.AnchorLen = x
		r := NewRecoverer(nil, flows, rcfg)
		buckets := len(r.index.start) - 1

		// Query every anchor of every flow (the quarantined one's too),
		// then absent ones until the queries outnumber the buckets.
		seen := map[[4]uint64]bool{}
		var queries [][]uint64
		addQuery := func(q []uint64) {
			var k [4]uint64
			copy(k[:], q)
			if !seen[k] {
				seen[k] = true
				queries = append(queries, q)
			}
		}
		for _, f := range flows {
			keys := appendKeys(nil, f.Seg.Tokens)
			for p := x; p <= len(keys); p++ {
				addQuery(keys[p-x : p])
			}
		}
		for len(queries) <= buckets {
			q := make([]uint64, x)
			for j := range q {
				q[j] = 1<<62 | rng.Uint64()>>2 // no MatchKey has bit 62 alone
			}
			addQuery(q)
		}

		// Some bucket holds positions of more than one indexed anchor.
		shared := 0
		for b := 0; b < buckets; b++ {
			anchors := map[[4]uint64]bool{}
			for _, ap := range r.index.pos[r.index.start[b]:r.index.start[b+1]] {
				var k [4]uint64
				copy(k[:], r.keys[ap.seg][int(ap.pos)-x:ap.pos])
				anchors[k] = true
			}
			if len(anchors) > 1 {
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("AnchorLen %d: no bucket of %d holds two anchors", x, buckets)
		}

		for _, q := range queries {
			var got []anchorPos
			r.index.visit(anchorHash(q, x-1, x), func(ap anchorPos) {
				if suffixKeys(q, x, r.keys[ap.seg], int(ap.pos)) >= x {
					got = append(got, ap)
				}
			})
			var want []anchorPos
			for si, f := range flows {
				if f.Quarantined {
					continue
				}
				keys := appendKeys(nil, f.Seg.Tokens)
				for p := x; p <= len(keys); p++ {
					if sameKeys(keys[p-x:p], q) {
						want = append(want, anchorPos{seg: int32(si), pos: int32(p)})
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("AnchorLen %d, anchor %x: index yields %v, scan %v", x, q, got, want)
			}
		}
		t.Logf("AnchorLen %d: %d positions, %d buckets (%d shared), %d queries",
			x, len(r.index.pos), buckets, shared, len(queries))
	}
}
