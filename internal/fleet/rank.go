package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sort"
	"strings"
)

// NormalizeURL is the one spelling rule for replica base URLs: surrounding
// space and trailing slashes are trimmed, so "http://a:1/ " and "http://a:1"
// name the same replica everywhere — routing, peer lookups, membership
// gossip and the CLI.
func NormalizeURL(url string) string {
	return strings.TrimRight(strings.TrimSpace(url), "/")
}

// Normalize applies NormalizeURL to a replica list, drops empties and
// duplicates, and sorts the result. Sorted lists make equal views comparable
// bytewise, so (members, epoch) snapshots from different replicas compare
// directly; rendezvous ranking is order-independent, so sorting never moves
// a key.
func Normalize(urls []string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(urls))
	for _, u := range urls {
		u = NormalizeURL(u)
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Rank orders replicas for a key by rendezvous (highest-random-weight)
// hashing: every replica is scored by SHA-256(replica NUL key) and sorted
// by descending score. All clients rank identically for a key regardless of
// the order replicas were listed in, and removing one replica only moves
// the keys it owned — everything else keeps its ranking. The full order is
// the retry path: position 0 owns the key, position 1 inherits it if 0 is
// down, and so on.
func Rank(replicas []string, key string) []string {
	type scored struct {
		replica string
		score   uint64
	}
	ss := make([]scored, len(replicas))
	for i, r := range replicas {
		h := sha256.New()
		io.WriteString(h, r)
		h.Write([]byte{0})
		io.WriteString(h, key)
		sum := h.Sum(nil)
		ss[i] = scored{replica: r, score: binary.BigEndian.Uint64(sum[:8])}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].replica < ss[j].replica
	})
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.replica)
	}
	return out
}
