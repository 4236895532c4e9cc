package jportal

import "jportal/internal/core"

// PieceCount counts the pieces core's reconstruction cuts toks into: a
// cut at the first located token at or past each multiple of its piece
// length (32768 tokens), short of the last token. Every located token of a
// real trace names a real instruction, so Located stands in for the
// matcher's validity check.
func PieceCount(toks []core.Token) int {
	const n = 32768
	pieces := 1
	for c := n; c < len(toks)-1; c++ {
		if toks[c].Located() {
			pieces++
			c = (c/n+1)*n - 1
		}
	}
	return pieces
}
