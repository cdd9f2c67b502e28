package core

import "testing"

// decodeStatus runs a status frame through the master's decoder.
func decodeStatus(t *testing.T, frame []byte) (count int, minOff int64, offs []int64, threads int) {
	t.Helper()
	if len(frame) == 0 || frame[0] != msgStatus {
		t.Fatalf("not a status frame: % x", frame)
	}
	offs, minOff, threads, ok := (&frameReader{b: frame, pos: 1}).status()
	if !ok {
		t.Fatalf("malformed status frame: % x", frame)
	}
	return len(offs), minOff, offs, threads
}

func TestStatusFrameWithSlaves(t *testing.T) {
	count, minOff, offs, threads := decodeStatus(t, statusFrame([]int64{300, 100, 200}, 2))
	if count != 3 || minOff != 100 {
		t.Fatalf("count=%d minOff=%d, want 3/100", count, minOff)
	}
	if len(offs) != 3 || offs[0] != 300 || offs[1] != 100 || offs[2] != 200 {
		t.Fatalf("offsets %v", offs)
	}
	if threads != 2 {
		t.Fatalf("effective threads %d, want 2", threads)
	}
}

func TestStatusFrameWithZeroValidSlaves(t *testing.T) {
	// The empty report used to encode the -1 "unset" sentinel, which decodes
	// through uint64 into a huge bogus offset on the master side.
	count, minOff, _, threads := decodeStatus(t, statusFrame(nil, 1))
	if count != 0 {
		t.Fatalf("count=%d want 0", count)
	}
	if minOff != 0 {
		t.Fatalf("empty status frame encodes minOff=%d, want 0", minOff)
	}
	if threads != 1 {
		t.Fatalf("effective threads %d, want 1", threads)
	}
}

func TestOrderChunksSortsAndDeduplicates(t *testing.T) {
	buf := []streamChunk{
		{off: 200, data: []byte("c")},
		{off: 0, data: []byte("a")},
		{off: 100, data: []byte("b")},
		{off: 100, data: []byte("b")}, // duplicate buffered across a resync
	}
	out := orderChunks(buf)
	if len(out) != 3 {
		t.Fatalf("got %d chunks, want 3 (duplicate dropped)", len(out))
	}
	for i, want := range []int64{0, 100, 200} {
		if out[i].off != want {
			t.Fatalf("chunk %d at offset %d, want %d (drain order must be offset order)", i, out[i].off, want)
		}
	}
}
