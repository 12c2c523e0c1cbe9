package candgen

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// keyChunk is the number of keys per key-table chunk, and of entries per
// pool chunk.
const keyChunk = 256

// keyTable is an insertion-ordered set of fixed-width byte keys: the i-th
// distinct key inserted gets slot i, and slots are never removed. Keys and
// their 64-bit hashes are stored in chunks of keyChunk, so a key costs no
// allocation of its own and nothing is copied as the table grows. The index
// is an open-addressed, linearly probed array of slot+1 values (0 = empty)
// kept at most half full; it grows by rehashing the stored hashes. A probe
// compares stored hashes first and key bytes only on a hash match, so two
// keys are equal exactly when their bytes are.
type keyTable struct {
	width  int
	keys   [][]byte
	hashes []*[keyChunk]uint64
	n      int
	index  []int32
}

// reset empties the table for keys of the given width. Chunks of the same
// width are kept and overwritten by later inserts; the index keeps its size
// and is cleared.
func (t *keyTable) reset(width int) {
	if width != t.width {
		t.width, t.keys, t.hashes = width, nil, nil
	}
	t.n = 0
	if t.index == nil {
		t.index = make([]int32, 2*keyChunk)
	} else {
		clear(t.index)
	}
}

// len returns the number of distinct keys.
func (t *keyTable) len() int { return t.n }

// key returns the bytes of the key in slot; they must not be modified.
func (t *keyTable) key(slot int32) []byte {
	off := int(slot%keyChunk) * t.width
	return t.keys[slot/keyChunk][off : off+t.width : off+t.width]
}

func (t *keyTable) hash(slot int32) uint64 { return t.hashes[slot/keyChunk][slot%keyChunk] }

// insert adds key unless it is present and returns its slot; added reports
// whether the key was new. The table keeps a copy of key.
func (t *keyTable) insert(key []byte) (slot int32, added bool) {
	h := hashKey(key)
	mask := len(t.index) - 1
	i := int(h) & mask
	for ; ; i = (i + 1) & mask {
		s := t.index[i] - 1
		if s < 0 {
			break
		}
		if t.hash(s) == h && bytes.Equal(t.key(s), key) {
			return s, false
		}
	}
	slot = int32(t.n)
	if t.n/keyChunk == len(t.keys) {
		t.keys = append(t.keys, make([]byte, keyChunk*t.width))
		t.hashes = append(t.hashes, new([keyChunk]uint64))
	}
	copy(t.key(slot), key)
	t.hashes[slot/keyChunk][slot%keyChunk] = h
	t.n++
	t.index[i] = slot + 1
	if 2*t.n > len(t.index) {
		t.grow()
	}
	return slot, true
}

// grow doubles the index and reinserts every slot by its stored hash.
func (t *keyTable) grow() {
	t.index = make([]int32, 2*len(t.index))
	mask := len(t.index) - 1
	for s := int32(0); s < int32(t.n); s++ {
		i := int(t.hash(s)) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = s + 1
	}
}

// hashKey mixes key eight bytes at a time. Candidate keys are small
// integers in little-endian words, so every word is multiplied through
// before the final avalanche spreads it over the low bits the index uses.
func hashKey(key []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(key)) * m
	for ; len(key) >= 8; key = key[8:] {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(key)*m, 29) * m
	}
	for _, b := range key {
		h = bits.RotateLeft64(h^uint64(b)*m, 29) * m
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
