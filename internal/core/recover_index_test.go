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

// serialAnchorIndex is the anchor index as one goroutine builds it with no
// segment prepared: it rolls each flow's anchor hash along its keys, once
// to count every bucket and once to place every position. It is the
// reference the prepared, fanned-out build must equal.
func serialAnchorIndex(keys [][]uint64, x int) anchorIndex {
	first := max(x-1, 0)
	positions := 0
	for _, k := range keys {
		if len(k) >= x {
			positions += len(k) - first
		}
	}
	nb := 1
	for nb < positions {
		nb <<= 1
	}
	ix := anchorIndex{
		mask:  uint64(nb - 1),
		start: make([]int32, nb+1),
		pos:   make([]anchorPos, positions),
	}
	out := uint64(1)
	for range x {
		out *= anchorPoly
	}
	for _, k := range keys {
		h := uint64(0)
		for i := range k {
			h = rollAnchor(h, k, i, x, out)
			if i >= first {
				ix.start[mixAnchor(h)&ix.mask+1]++
			}
		}
	}
	sum := int32(0)
	for b := 1; b <= nb; b++ {
		sum, ix.start[b] = sum+ix.start[b], sum
	}
	for si, k := range keys {
		h := uint64(0)
		for i := range k {
			h = rollAnchor(h, k, i, x, out)
			if i >= first {
				b := mixAnchor(h)&ix.mask + 1
				ix.pos[ix.start[b]] = anchorPos{seg: int32(si), pos: int32(i + 1)}
				ix.start[b]++
			}
		}
	}
	return ix
}

// TestAnchorIndexMatchesSerialBuild: the anchor index NewRecoverer builds
// from prepared segments, its counting sort fanned out over bucket ranges,
// equals the serial rolling-hash build — every bucket the same positions
// in the same order — and so do its keys. Random flows mix repetitive
// motifs with nil flows, quarantined flows and flows shorter than the
// anchor; each is built on 1 to 8 workers and on more workers than
// buckets, from cold segments, from segments prepared before, and from
// segments prepared for another anchor length.
func TestAnchorIndexMatchesSerialBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var vocab []Token
	for i := 0; i < 40; i++ {
		vocab = append(vocab, Token{Op: bytecode.ILOAD, Method: bytecode.MethodID(i % 5), PC: int32(i)})
	}
	vocab = append(vocab, tok(bytecode.ILOAD), tok(bytecode.IADD), tok(bytecode.INVOKESTATIC),
		tok(bytecode.RETURN), dtok(bytecode.IFEQ, true), dtok(bytecode.IFEQ, false))
	mkFlows := func() []*SegmentFlow {
		flows := make([]*SegmentFlow, 2+rng.Intn(7))
		for i := range flows {
			switch rng.Intn(8) {
			case 0:
				continue // nil
			case 1:
				flows[i] = &SegmentFlow{Seg: &Segment{Tokens: make([]Token, rng.Intn(4))}}
				for j := range flows[i].Seg.Tokens {
					flows[i].Seg.Tokens[j] = vocab[rng.Intn(len(vocab))]
				}
				continue // shorter than most anchors
			}
			toks := make([]Token, rng.Intn(400))
			motif := rng.Intn(6) + 1
			for j := range toks {
				if j >= motif && rng.Intn(10) != 0 {
					toks[j] = toks[j-motif] // repeats share anchors, and buckets
				} else {
					toks[j] = vocab[rng.Intn(len(vocab))]
				}
			}
			flows[i] = &SegmentFlow{Seg: &Segment{Tokens: toks}, Quarantined: rng.Intn(6) == 0}
		}
		return flows
	}
	for iter := 0; iter < 60; iter++ {
		flows := mkFlows()
		keys := make([][]uint64, len(flows))
		for si, f := range flows {
			if f != nil && !f.Quarantined {
				keys[si] = appendKeys([]uint64{}, f.Seg.Tokens)
			}
		}
		// The second anchor length rebuilds the hashes of segments
		// prepared for the first.
		for _, x := range []int{iter % 5, 4 + iter%4} {
			want := serialAnchorIndex(keys, x)
			rcfg := DefaultRecoveryConfig()
			rcfg.AnchorLen = x
			buckets := len(want.start) - 1
			for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, buckets + 3} {
				r := newRecoverer(nil, flows, rcfg, w)
				if !reflect.DeepEqual(r.index, want) {
					t.Fatalf("iter %d, AnchorLen %d, %d workers: index differs from the serial build (%d positions, %d buckets)",
						iter, x, w, len(want.pos), buckets)
				}
				if !reflect.DeepEqual(r.keys, keys) {
					t.Fatalf("iter %d, AnchorLen %d, %d workers: keys differ", iter, x, w)
				}
			}
		}
	}
}
