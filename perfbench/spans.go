package main

import rbc "rbcsalted"

// layerTimes are the traced window's per-layer samples (ms) and the
// spans they came from.
type layerTimes struct {
	dial, helloRTT, respond, resultWait []float64
	handshake, handshakeSelf            []float64
	authenticate, authenticateSelf      []float64
	queueWait, service                  []float64
	journal                             map[string][]float64
	bytes                               int64
	appends, joined                     int
	spans                               []span
}

// serverSide is a joined server connection's protocol milestones.
type serverSide struct {
	conn                         *connTrace
	helloIn, challengeOut        int64
	digestIn, replyOut, replyEnd int64
	journal                      []span
	sched                        []span
}

// schedSpans turns the scheduler's trace events into one queue-wait and
// one service span per served search (Req and IDs unset).
func schedSpans(events []rbc.TraceEvent) [][2]span {
	type pair struct {
		q, s     span
		hasQ, ok bool
	}
	bySearch := make(map[uint64]*pair)
	var order []uint64
	for _, ev := range events {
		p := bySearch[ev.Search]
		if p == nil {
			p = &pair{}
			bySearch[ev.Search] = p
			order = append(order, ev.Search)
		}
		t := ev.Time.UnixNano()
		switch ev.Kind { // obs.KindDequeue and obs.KindDone; package rbc does not re-export them
		case "sched.dequeue":
			p.q = span{Name: "sched.queue", Start: t - int64(ev.Dur), End: t}
			p.hasQ = true
		case "sched.done":
			p.s = span{Name: "sched.service", Start: t - int64(ev.Dur), End: t}
			p.ok = true
		}
	}
	var out [][2]span
	for _, id := range order {
		if p := bySearch[id]; p.hasQ && p.ok {
			out = append(out, [2]span{p.q, p.s})
		}
	}
	return out
}

// buildSpans joins the generator's and the server's records of the
// traced window into per-request spans and per-layer samples.
//
// A request's spans: client.auth (root) with netproto.dial,
// netproto.hello_rtt, netproto.client_respond, netproto.result_wait and
// server.conn under it; core.handshake and core.authenticate under
// server.conn with their durable.* journal calls under them; and
// sched.queue / sched.service under server.conn, beside rather than
// under core.authenticate, so that core.authenticate_self keeps the
// search and moves with escalated latency.
func buildSpans(p *phase, st *serverTrace) layerTimes {
	lt := layerTimes{journal: make(map[string][]float64)}

	var clientConns []*connTrace
	var owner []int
	for i, s := range p.samples {
		for _, c := range s.trace.conns {
			clientConns = append(clientConns, c)
			owner = append(owner, i)
		}
	}
	servers := make(map[int]*serverSide)
	for si, ci := range joinConns(clientConns, st.Conns) {
		if ci < 0 {
			continue
		}
		sc := st.Conns[si]
		h, ok1 := sc.find(false, msgHello)
		ch, ok2 := sc.find(true, msgChallenge)
		dg, ok3 := sc.find(false, msgDigest)
		rp, ok4 := sc.reply(true)
		if !(ok1 && ok2 && ok3 && ok4) {
			continue
		}
		servers[owner[ci]] = &serverSide{conn: sc, helloIn: h.End, challengeOut: ch.Start,
			digestIn: dg.End, replyOut: rp.Start, replyEnd: rp.End}
	}
	lt.joined = len(servers)

	// Attribute journal calls by client ID and scheduler searches by
	// time to the joined requests.
	var idx []int
	var jwins, swins []window
	for i, ss := range servers {
		idx = append(idx, i)
		jwins = append(jwins, window{Key: p.samples[i].Client, Start: ss.helloIn, End: ss.replyEnd})
		swins = append(swins, window{Start: ss.digestIn, End: ss.replyOut})
	}
	var jitems []window
	for _, j := range st.Journal {
		jitems = append(jitems, window{Key: j.Client, Start: j.Start, End: j.End})
	}
	for k, w := range attribute(jwins, jitems) {
		if w >= 0 {
			j := st.Journal[k]
			ss := servers[idx[w]]
			ss.journal = append(ss.journal, span{Name: j.Name, Start: j.Start, End: j.End})
		}
	}
	searches := schedSpans(st.Sched)
	var sitems []window
	for _, qs := range searches {
		sitems = append(sitems, window{Start: qs[0].Start, End: qs[1].End})
	}
	for k, w := range attribute(swins, sitems) {
		if w >= 0 {
			ss := servers[idx[w]]
			ss.sched = append(ss.sched, searches[k][0], searches[k][1])
		}
	}

	for i, s := range p.samples {
		lt.addRequest(s, s.trace.conns, servers[i])
	}
	return lt
}

// addRequest emits one request's spans and adds its layer samples.
func (lt *layerTimes) addRequest(s sample, conns []*connTrace, ss *serverSide) {
	next := uint64(0)
	add := func(parent uint64, name string, start, end int64) span {
		next++
		sp := span{Req: s.Req, ID: next, Parent: parent, Name: name, Start: start, End: end}
		lt.spans = append(lt.spans, sp)
		return sp
	}
	root := add(0, "client.auth", s.Start, s.End)
	for _, c := range conns {
		add(root.ID, "netproto.dial", c.Open, c.Opened)
		lt.dial = append(lt.dial, ms(c.Opened-c.Open))
		lt.bytes += c.BytesIn + c.BytesOut
	}
	if len(conns) > 0 {
		c := conns[len(conns)-1]
		h, ok1 := c.find(true, msgHello)
		ch, ok2 := c.find(false, msgChallenge)
		dg, ok3 := c.find(true, msgDigest)
		rp, ok4 := c.reply(false)
		if ok1 && ok2 {
			add(root.ID, "netproto.hello_rtt", h.Start, ch.End)
			lt.helloRTT = append(lt.helloRTT, ms(ch.End-h.Start))
		}
		if ok2 && ok3 {
			add(root.ID, "netproto.client_respond", ch.End, dg.Start)
			lt.respond = append(lt.respond, ms(dg.Start-ch.End))
		}
		if ok3 && ok4 {
			add(root.ID, "netproto.result_wait", dg.End, rp.End)
			lt.resultWait = append(lt.resultWait, ms(rp.End-dg.End))
		}
	}
	if ss == nil {
		return
	}
	end := ss.conn.Closed
	if end == 0 {
		end = ss.replyEnd
	}
	conn := add(root.ID, "server.conn", ss.conn.Opened, end)
	hs := add(conn.ID, "core.handshake", ss.helloIn, ss.challengeOut)
	au := add(conn.ID, "core.authenticate", ss.digestIn, ss.replyOut)
	var hsKids, auKids []span
	for _, j := range ss.journal {
		lt.appends++
		lt.journal[j.Name] = append(lt.journal[j.Name], ms(j.dur()))
		parent := conn.ID
		switch {
		case j.Start >= hs.Start && j.End <= hs.End:
			parent = hs.ID
			hsKids = append(hsKids, j)
		case j.Start >= au.Start && j.End <= au.End:
			parent = au.ID
			auKids = append(auKids, j)
		}
		add(parent, j.Name, j.Start, j.End)
	}
	lt.handshake = append(lt.handshake, ms(hs.dur()))
	lt.handshakeSelf = append(lt.handshakeSelf, ms(selfTime(hs, hsKids)))
	lt.authenticate = append(lt.authenticate, ms(au.dur()))
	lt.authenticateSelf = append(lt.authenticateSelf, ms(selfTime(au, auKids)))
	for _, sp := range ss.sched {
		add(conn.ID, sp.Name, sp.Start, sp.End)
		if sp.Name == "sched.queue" {
			lt.queueWait = append(lt.queueWait, ms(sp.dur()))
		} else {
			lt.service = append(lt.service, ms(sp.dur()))
		}
	}
}
