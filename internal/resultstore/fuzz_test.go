package resultstore

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzDecodeBlob: whatever a peer sends, DecodeBlob either errors or
// returns a payload whose blob frame under the requested key is exactly the
// input — no lenient parse can smuggle extra or altered bytes into a tier.
func FuzzDecodeBlob(f *testing.F) {
	f.Add("k", EncodeBlob("k", []byte("payload")))
	f.Add("k", EncodeBlob("k", nil))
	f.Add("k", EncodeBlob("other", []byte("payload")))
	f.Add("", []byte(blobMagic))
	f.Add("k", append(EncodeBlob("k", []byte("payload")), 0))
	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		val, err := DecodeBlob(key, raw)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeBlob(key, val), raw) {
			t.Fatalf("DecodeBlob accepted %x, which does not re-encode to itself", raw)
		}
	})
}

// FuzzDecodeManifest: a chunk manifest read off disk either errors or
// re-encodes to exactly the bytes it was parsed from.
func FuzzDecodeManifest(f *testing.F) {
	val := randBytes(3, 3*chunkMax)
	var refs []chunkRef
	for _, sp := range splitChunks(val) {
		refs = append(refs, chunkRef{sum: sha256.Sum256(sp), clen: uint32(len(compressChunk(sp)))})
	}
	f.Add(encodeManifest(sha256.Sum256(val), int64(len(val)), refs))
	f.Add(encodeManifest(sha256.Sum256(nil), 0, nil))
	f.Add([]byte(chunkedMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := decodeManifest(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeManifest(e.sum, e.logical, e.chunks), raw) {
			t.Fatalf("decodeManifest accepted %x, which does not re-encode to itself", raw)
		}
	})
}
