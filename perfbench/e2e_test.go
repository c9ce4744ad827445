package main

import (
	"testing"
	"time"
)

// TestTracedWindowJoinsEveryRequest drives a traced in-process server
// with the inline-wal lanes and checks that every request's client and
// server records join, that each carries its three journal calls, and
// that every reply passed the key checks.
func TestTracedWindowJoinsEveryRequest(t *testing.T) {
	node, rec, ln, err := startNode(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	served := make(chan error, 1)
	go func() { served <- node.Serve(ln) }()

	w, err := findWorkload("inline-wal")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newGenerator(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.runLanes(d.lanes, ln.Addr().String(), time.Now(), 300*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	node.Proto.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if len(r.samples) == 0 || len(r.violations) > 0 {
		t.Fatalf("%d requests, violations %v", len(r.samples), r.violations)
	}
	p := &phase{samples: r.samples}
	for i, s := range r.samples {
		if !s.OK {
			t.Fatalf("request %d failed: %s", i, s.Err)
		}
	}
	conns, journal := rec.snapshot()
	lt := buildSpans(p, &serverTrace{Conns: conns, Journal: journal, Sched: node.Trace.Snapshot()})
	n := len(r.samples)
	if lt.joined != n || lt.appends != 3*n || len(lt.handshake) != n || len(lt.helloRTT) != n {
		t.Fatalf("%d requests: joined %d, journal calls %d, handshakes %d, hello RTTs %d",
			n, lt.joined, lt.appends, len(lt.handshake), len(lt.helloRTT))
	}
	if _, high := d.dialer.counts(); high > maxConns {
		t.Fatalf("connection high-water %d", high)
	}
	perReq := make(map[uint64]int)
	for _, sp := range lt.spans {
		perReq[sp.Req]++
		if sp.End < sp.Start {
			t.Fatalf("span %s ends before it starts", sp.Name)
		}
	}
	// client.auth, dial, hello_rtt, client_respond, result_wait,
	// server.conn, handshake, authenticate and three journal calls.
	for req, k := range perReq {
		if k != 11 {
			t.Fatalf("request %d has %d spans, want 11", req, k)
		}
	}
}
