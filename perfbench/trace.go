package main

import (
	"context"
	"encoding/binary"
	"net"
	"sort"
	"sync"
	"time"

	rbc "rbcsalted"
)

// Wire message types of the netproto framing (u32 big-endian length,
// then one type byte and the payload).
const (
	msgHello     = 1
	msgChallenge = 2
	msgDigest    = 3
	msgResult    = 4
	msgError     = 5
)

func now() int64 { return time.Now().UnixNano() }

// frame is one protocol message as seen on one side of a connection:
// when its first and last bytes crossed the socket call, in Unix nanos.
type frame struct {
	Out   bool  `json:"out"`
	Type  byte  `json:"type"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// frameTap follows the framing over one direction of a byte stream.
type frameTap struct {
	out          bool
	hdr          [4]byte
	nhdr         int
	size, remain int // the current frame's body length and what is left of it
	typ          byte
	start        int64
	bytes        int64
	frames       *[]frame
}

// feed consumes p, which crossed the socket between t0 and t1: a frame
// starting in p starts at t0, one ending in p ends at t1.
func (t *frameTap) feed(p []byte, t0, t1 int64) {
	t.bytes += int64(len(p))
	for len(p) > 0 {
		if t.remain == 0 {
			if t.nhdr == 0 {
				t.start = t0
			}
			k := copy(t.hdr[t.nhdr:], p)
			t.nhdr += k
			p = p[k:]
			if t.nhdr == 4 {
				t.nhdr = 0
				t.size = int(binary.BigEndian.Uint32(t.hdr[:]))
				t.remain = t.size
			}
			continue
		}
		if t.remain == t.size {
			t.typ = p[0]
		}
		k := min(t.remain, len(p))
		t.remain -= k
		p = p[k:]
		if t.remain == 0 {
			*t.frames = append(*t.frames, frame{Out: t.out, Type: t.typ, Start: t.start, End: t1})
		}
	}
}

// connTrace is one traced TCP connection. On the client side Open/Opened
// bracket the dial; on the server side both are the accept time. Local
// and Remote are the connection's own addresses, so a client record's
// Local equals its server record's Remote.
type connTrace struct {
	Local    string  `json:"local"`
	Remote   string  `json:"remote"`
	Open     int64   `json:"open"`
	Opened   int64   `json:"opened"`
	Closed   int64   `json:"closed"`
	BytesIn  int64   `json:"bytes_in"`
	BytesOut int64   `json:"bytes_out"`
	Frames   []frame `json:"frames"`
}

// find returns the first frame of a type and direction.
func (c *connTrace) find(out bool, typ byte) (frame, bool) {
	for _, f := range c.Frames {
		if f.Out == out && f.Type == typ {
			return f, true
		}
	}
	return frame{}, false
}

// reply returns the frame answering the digest: a result or an error.
func (c *connTrace) reply(out bool) (frame, bool) {
	if f, ok := c.find(out, msgResult); ok {
		return f, true
	}
	return c.find(out, msgError)
}

// tracedConn times every read and write through frame taps. With a nil
// trace it only keeps the open-connection count.
type tracedConn struct {
	net.Conn
	tr        *connTrace
	in, out   frameTap
	mu        sync.Mutex
	closeOnce sync.Once
	onClose   func()
}

func newTracedConn(c net.Conn, tr *connTrace, onClose func()) *tracedConn {
	tc := &tracedConn{Conn: c, tr: tr, onClose: onClose}
	if tr != nil {
		tr.Local, tr.Remote = c.LocalAddr().String(), c.RemoteAddr().String()
		tc.in = frameTap{frames: &tr.Frames}
		tc.out = frameTap{out: true, frames: &tr.Frames}
	}
	return tc
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr != nil && n > 0 {
		t := now()
		c.mu.Lock()
		c.in.feed(p[:n], t, t)
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.tr == nil {
		return c.Conn.Write(p)
	}
	t0 := now()
	n, err := c.Conn.Write(p)
	t1 := now()
	c.mu.Lock()
	c.out.feed(p[:n], t0, t1)
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(func() {
		if c.tr != nil {
			c.mu.Lock()
			c.tr.Closed = now()
			c.tr.BytesIn, c.tr.BytesOut = c.in.bytes, c.out.bytes
			c.mu.Unlock()
		}
		if c.onClose != nil {
			c.onClose()
		}
	})
	return err
}

// dialer is the generator's ClientConfig.DialContext. It always counts
// open connections and their high-water mark; when tracing it records
// each connection under the request carried in the dial context.
type dialer struct {
	mu         sync.Mutex
	open, high int
	dials      int
}

type reqKey struct{}

// reqTrace collects the client-side connections of one authentication.
type reqTrace struct {
	mu    sync.Mutex
	conns []*connTrace
}

func (d *dialer) dial(ctx context.Context, addr string) (net.Conn, error) {
	t0 := now()
	var nd net.Dialer
	c, err := nd.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials++
	d.open++
	d.high = max(d.high, d.open)
	d.mu.Unlock()
	var tr *connTrace
	if rt, _ := ctx.Value(reqKey{}).(*reqTrace); rt != nil {
		tr = &connTrace{Open: t0, Opened: now()}
		rt.mu.Lock()
		rt.conns = append(rt.conns, tr)
		rt.mu.Unlock()
	}
	return newTracedConn(c, tr, func() {
		d.mu.Lock()
		d.open--
		d.mu.Unlock()
	}), nil
}

// counts returns the dials so far and the open-connection high-water mark.
func (d *dialer) counts() (dials, high int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials, d.high
}

// serverRecorder is the server-mode half of the trace: every accepted
// connection and every journal call, kept in memory until shutdown.
type serverRecorder struct {
	mu      sync.Mutex
	conns   []*tracedConn
	journal []journalSpan
	open    sync.WaitGroup // accepted connections not yet closed
}

// snapshot waits for every accepted connection's handler to close it,
// then copies everything recorded. Call it after the listener closed.
func (r *serverRecorder) snapshot() ([]*connTrace, []journalSpan) {
	r.open.Wait() // each Close finished writing its trace before Done
	r.mu.Lock()
	defer r.mu.Unlock()
	conns := make([]*connTrace, len(r.conns))
	for i, c := range r.conns {
		conns[i] = c.tr
	}
	return conns, append([]journalSpan(nil), r.journal...)
}

type journalSpan struct {
	Name   string `json:"name"`
	Client string `json:"client"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (r *serverRecorder) addJournal(name string, id rbc.ClientID, t0 int64) {
	t1 := now()
	r.mu.Lock()
	r.journal = append(r.journal, journalSpan{Name: name, Client: string(id), Start: t0, End: t1})
	r.mu.Unlock()
}

// tracedListener wraps the server's listener so every accepted
// connection is timed frame by frame.
type tracedListener struct {
	net.Listener
	rec *serverRecorder
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t := now()
	l.rec.open.Add(1)
	tc := newTracedConn(c, &connTrace{Open: t, Opened: t}, l.rec.open.Done)
	l.rec.mu.Lock()
	l.rec.conns = append(l.rec.conns, tc)
	l.rec.mu.Unlock()
	return tc, nil
}

// timedJournal sits between a store and the durable State, timing each
// journal call; the State still does all the work.
type timedJournal struct {
	inner rbc.Journal
	rec   *serverRecorder
}

func (j timedJournal) ImagePut(id rbc.ClientID, sealed []byte) error {
	t0 := now()
	defer j.rec.addJournal("durable.image_put", id, t0)
	return j.inner.ImagePut(id, sealed)
}

func (j timedJournal) ImageDelete(id rbc.ClientID) error {
	t0 := now()
	defer j.rec.addJournal("durable.image_delete", id, t0)
	return j.inner.ImageDelete(id)
}

func (j timedJournal) RAKeyUpdate(id rbc.ClientID, key []byte) error {
	t0 := now()
	defer j.rec.addJournal("durable.ra_key_update", id, t0)
	return j.inner.RAKeyUpdate(id, key)
}

func (j timedJournal) RACertUpdate(id rbc.ClientID, cert *rbc.Certificate) error {
	t0 := now()
	defer j.rec.addJournal("durable.ra_cert_update", id, t0)
	return j.inner.RACertUpdate(id, cert)
}

func (j timedJournal) RADelete(id rbc.ClientID) error {
	t0 := now()
	defer j.rec.addJournal("durable.ra_delete", id, t0)
	return j.inner.RADelete(id)
}

func (j timedJournal) SessionOpen(id rbc.ClientID, ch rbc.Challenge) error {
	t0 := now()
	defer j.rec.addJournal("durable.session_open", id, t0)
	return j.inner.SessionOpen(id, ch)
}

func (j timedJournal) SessionClose(id rbc.ClientID) error {
	t0 := now()
	defer j.rec.addJournal("durable.session_close", id, t0)
	return j.inner.SessionClose(id)
}

// serverTrace is what server mode writes at shutdown.
type serverTrace struct {
	Conns     []*connTrace     `json:"conns"`
	Journal   []journalSpan    `json:"journal"`
	Sched     []rbc.TraceEvent `json:"sched"`
	RingTotal uint64           `json:"ring_total"`
}

// span is one timed step of one request. Spans of a request share Req;
// Parent is the ID of the span that caused it (0 for the root).
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the part of parent's interval that none of its children
// covers. Children are clipped to the parent and overlaps count once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(0)
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			covered += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	covered += curB - curA
	return parent.dur() - covered
}

// joinConns pairs each server connection with the client connection at
// the other end of it: same TCP 4-tuple (the client's Local is the
// server's Remote) and accepted while the client's connection was open.
// The time check matters because ephemeral ports are reused within a
// run. It returns, per server connection, the client index or -1.
func joinConns(clients, servers []*connTrace) []int {
	byTuple := make(map[[2]string][]int)
	for i, c := range clients {
		k := [2]string{c.Local, c.Remote}
		byTuple[k] = append(byTuple[k], i)
	}
	out := make([]int, len(servers))
	for i, s := range servers {
		out[i] = -1
		for _, ci := range byTuple[[2]string{s.Remote, s.Local}] {
			c := clients[ci]
			closed := c.Closed
			if closed == 0 {
				closed = 1<<63 - 1
			}
			if s.Opened >= c.Open && s.Opened <= closed {
				out[i] = ci
				break
			}
		}
	}
	return out
}

// window is an interval a child span must fall inside to be attributed
// to an owner; owners with the same key compete and the tightest fit wins.
type window struct {
	Key        string
	Start, End int64
}

// attribute assigns each item interval to the index of the window with
// the same key that contains it, preferring the least slack; -1 when none
// does. Journal calls attribute by client ID, which alone is unambiguous
// because a client is driven by one lane at a time; scheduler searches
// carry no client ID, so they compete on time alone.
func attribute(wins []window, items []window) []int {
	byKey := make(map[string][]int)
	for i, w := range wins {
		byKey[w.Key] = append(byKey[w.Key], i)
	}
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = -1
		best := int64(-1)
		for _, wi := range byKey[it.Key] {
			w := wins[wi]
			if it.Start < w.Start || it.End > w.End {
				continue
			}
			slack := (it.Start - w.Start) + (w.End - it.End)
			if best < 0 || slack < best {
				best, out[i] = slack, wi
			}
		}
	}
	return out
}
