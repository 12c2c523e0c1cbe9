package candgen

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// find returns key's slot, or -1 when the key is absent.
func (t *keyTable) find(key []byte) int32 {
	h := hashKey(key)
	mask := len(t.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := t.index[i] - 1
		if s < 0 {
			return -1
		}
		if t.hash(s) == h && bytes.Equal(t.key(s), key) {
			return s
		}
	}
}

// testKey encodes coords the way search.key does: fixed-width
// little-endian words.
func testKey(coords ...int64) []byte {
	var b []byte
	for _, c := range coords {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return b
}

// TestKeyTable inserts keys through several index growths and chunk
// boundaries, with duplicates mixed in, and checks that slots follow
// first-insertion order, that every key is found at its slot, that absent
// keys are not found, and that ordering slots by key bytes is the order
// of the same keys as strings. It fills the table twice: the second round
// follows a reset, which keeps the first round's chunks and grown index.
func TestKeyTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := new(keyTable)
	for round := 0; round < 2; round++ {
		tab.reset(3 * keyBytes)
		var order [][]byte // distinct keys in first-insertion order
		slotOf := map[string]int32{}
		for i := 0; i < 20*keyChunk; i++ {
			// Small coordinates, negatives included, collide often.
			k := testKey(rng.Int63n(40)-20, rng.Int63n(40)-20, rng.Int63n(12))
			slot, added := tab.insert(k)
			want, seen := slotOf[string(k)]
			switch {
			case seen && (added || slot != want):
				t.Fatalf("re-inserting %x: slot %d added %v, want slot %d", k, slot, added, want)
			case !seen && (!added || slot != int32(len(order))):
				t.Fatalf("inserting new %x: slot %d added %v, want slot %d", k, slot, added, len(order))
			case !seen:
				slotOf[string(k)] = slot
				order = append(order, k)
			}
		}
		if tab.len() != len(order) || len(order) <= 4*keyChunk {
			t.Fatalf("len %d, %d distinct keys; want equal and several chunks", tab.len(), len(order))
		}
		if len(tab.index) < 4*2*keyChunk {
			t.Fatalf("index has %d entries: the test did not grow it", len(tab.index))
		}
		for slot, k := range order {
			if !bytes.Equal(tab.key(int32(slot)), k) {
				t.Fatalf("slot %d holds %x, want %x", slot, tab.key(int32(slot)), k)
			}
			if got := tab.find(k); got != int32(slot) {
				t.Fatalf("find(%x) = %d, want %d", k, got, slot)
			}
		}
		for _, k := range [][]byte{testKey(20, 0, 0), testKey(0, -21, 0), testKey(0, 0, 12), testKey(1<<40, 0, 0)} {
			if got := tab.find(k); got != -1 {
				t.Fatalf("absent key %x found at slot %d", k, got)
			}
		}

		slots := make([]int32, len(order))
		strs := make([]string, len(order))
		for i := range slots {
			slots[i] = int32(i)
			strs[i] = string(order[i])
		}
		sort.Slice(slots, func(a, b int) bool { return bytes.Compare(tab.key(slots[a]), tab.key(slots[b])) < 0 })
		sort.Strings(strs)
		for i, slot := range slots {
			if string(tab.key(slot)) != strs[i] {
				t.Fatalf("position %d: byte order gives %x, string order %x", i, tab.key(slot), strs[i])
			}
		}
	}
}
