package pt

import "jportal/internal/source"

// The item record encoding is the neutral one in internal/source (the
// records are a source-independent struct dump); these wrappers bind it to
// the PT traits so records validate against the PT packet vocabulary. The
// bytes are identical to what this package wrote before the source layer
// existed.

// ErrMalformed tags wire records whose decoded fields fail validation —
// hostile lengths and impossible gaps are rejected at the trust boundary
// instead of reaching the decoder.
var ErrMalformed = source.ErrMalformed

// ValidateItem rejects items whose fields no well-formed PT encoder
// produces: an unknown packet kind, a TNT length beyond MaxTNTBits (a
// hostile length field must never drive downstream loops or allocation),
// or a loss gap that ends before it starts.
func ValidateItem(it *Item) error { return traits.ValidateItem(it) }

// AppendItem appends the wire encoding of one item (a tagged record) to
// dst and returns the extended slice. It is the unit the archive's chunk
// records frame trace chunks with.
func AppendItem(dst []byte, it *Item) []byte { return source.AppendItem(dst, it) }

// DecodeItem decodes one item record from the front of src, returning the
// item and the number of bytes consumed. Records that decode but fail
// ValidateItem are rejected with ErrMalformed.
func DecodeItem(src []byte) (Item, int, error) { return source.DecodeItem(src, traits) }
