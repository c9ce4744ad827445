package main

import (
	"encoding/binary"
	"testing"
)

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 20},
		{Start: 15, End: 30},  // overlaps the first: [10,30] counts once
		{Start: 90, End: 120}, // clipped to the parent: 10
		{Start: -5, End: 2},   // clipped: 2
		{Start: 40, End: 40},  // empty
		{Start: 200, End: 300},
	}
	if got := selfTime(parent, kids); got != 100-20-10-2 {
		t.Fatalf("self time = %d, want 68", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
	if got := selfTime(parent, []span{{Start: -1, End: 101}}); got != 0 {
		t.Fatalf("fully covered self time = %d, want 0", got)
	}
}

func TestJoinConnsByFourTupleAndTime(t *testing.T) {
	const srv = "127.0.0.1:9000"
	clients := []*connTrace{
		{Local: "127.0.0.1:5000", Remote: srv, Open: 100, Opened: 110, Closed: 200},
		{Local: "127.0.0.1:5001", Remote: srv, Open: 120, Opened: 125, Closed: 220},
		// Port 5000 reused later in the run.
		{Local: "127.0.0.1:5000", Remote: srv, Open: 1000, Opened: 1010, Closed: 1100},
		{Local: "127.0.0.1:5002", Remote: srv, Open: 2000, Opened: 2010}, // never closed
	}
	servers := []*connTrace{
		{Local: srv, Remote: "127.0.0.1:5000", Opened: 1005},
		{Local: srv, Remote: "127.0.0.1:5001", Opened: 126},
		{Local: srv, Remote: "127.0.0.1:5000", Opened: 111},
		{Local: srv, Remote: "127.0.0.1:5002", Opened: 2011},
		{Local: srv, Remote: "127.0.0.1:5003", Opened: 130},              // no client at that port
		{Local: srv, Remote: "127.0.0.1:5001", Opened: 500},              // port known, but not open then
		{Local: "127.0.0.1:9001", Remote: "127.0.0.1:5000", Opened: 150}, // other server address
	}
	got := joinConns(clients, servers)
	want := []int{2, 1, 0, 3, -1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("server conn %d joined client %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAttributePrefersTightestContainingWindow(t *testing.T) {
	wins := []window{
		{Key: "a", Start: 0, End: 100},
		{Key: "a", Start: 10, End: 50},
		{Key: "b", Start: 0, End: 100},
	}
	items := []window{
		{Key: "a", Start: 20, End: 40}, // inside both "a" windows: the tighter one
		{Key: "a", Start: 60, End: 70}, // only the wide one
		{Key: "b", Start: 20, End: 30},
		{Key: "a", Start: 90, End: 110}, // sticks out of every window
		{Key: "c", Start: 20, End: 30},
	}
	got := attribute(wins, items)
	want := []int{1, 0, 2, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("item %d attributed to %d, want %d", i, got[i], want[i])
		}
	}
}

func encodeFrame(typ byte, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(b, uint32(1+len(payload)))
	b[4] = typ
	copy(b[5:], payload)
	return b
}

func TestFrameTapFollowsFramesAcrossChunks(t *testing.T) {
	v4 := append([]byte{0, 4, 2}, make([]byte, 16)...)
	stream := append(encodeFrame(msgHello, append(v4, "c007"...)), encodeFrame(msgDigest, make([]byte, 40))...)
	stream = append(stream, encodeFrame(msgHello, []byte("c008"))...)
	for _, chunk := range []int{1, 2, 3, 5, 7, len(stream)} {
		tr := &connTrace{}
		tap := frameTap{out: false, frames: &tr.Frames}
		for i, ts := 0, int64(0); i < len(stream); i, ts = i+chunk, ts+10 {
			tap.feed(stream[i:min(i+chunk, len(stream))], ts, ts+1)
		}
		if tap.bytes != int64(len(stream)) {
			t.Fatalf("chunk %d: counted %d bytes, want %d", chunk, tap.bytes, len(stream))
		}
		if len(tr.Frames) != 3 {
			t.Fatalf("chunk %d: %d frames, want 3", chunk, len(tr.Frames))
		}
		if tr.Frames[0].Type != msgHello || tr.Frames[1].Type != msgDigest || tr.Frames[2].Type != msgHello {
			t.Fatalf("chunk %d: frame types %v", chunk, tr.Frames)
		}
		if tr.Frames[0].Start != 0 || tr.Frames[1].Start < tr.Frames[0].Start || tr.Frames[1].End < tr.Frames[0].End {
			t.Fatalf("chunk %d: frame times out of order: %+v", chunk, tr.Frames)
		}
	}
}
