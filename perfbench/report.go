package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// report accumulates a run's verdict and prints its human-readable
// lines; the last output line is the JSON result.
type report struct {
	correct   bool
	attempted int
	failed    int
	connHigh  int // generator's open-connection high-water mark
	problems  []string
}

func (r *report) fail(problems ...string) {
	if len(problems) > 0 {
		r.correct = false
		r.problems = append(r.problems, problems...)
	}
}

// addPhase counts a window's (and its probe's) attempts and checks the
// generator stayed within its connection budget.
func (r *report) addPhase(p *phase, d *generator) {
	for _, ss := range [][]sample{p.samples, p.probe} {
		for _, s := range ss {
			r.attempted++
			if !s.OK {
				r.failed++
				if r.failed <= 3 {
					fmt.Println("failed:", s.Err)
				}
			}
		}
	}
	r.fail(p.violations...)
	_, r.connHigh = d.dialer.counts()
	if r.connHigh > maxConns {
		r.fail(fmt.Sprintf("generator held %d connections at once, budget %d", r.connHigh, maxConns))
	}
}

// out collects metrics and prints one line per metric with its sample
// basis.
type out map[string]metric

func (m out) set(name, unit string, v float64, basis string) {
	m[name] = metric{Value: v, Unit: unit}
	printMetric(name, unit, v, basis)
}

func printMetric(name, unit string, v float64, basis string) {
	fmt.Printf("%-36s %14.4f %-6s %s\n", name, v, unit, basis)
}

// timingPair sets name.p50 and name.p99 (the tail by the minBeyond
// rule) from raw millisecond samples.
func (m out) timingPair(name string, xs []float64) {
	t := summarize(xs)
	m.set(name+".p50", "ms", t.P50, fmt.Sprintf("n=%d", t.N))
	m.set(name+".p99", "ms", t.Tail, tailBasis(t))
}

func tailBasis(t timing) string {
	if t.TailQ == 0 {
		return fmt.Sprintf("n=%d, too few samples for a tail", t.N)
	}
	return fmt.Sprintf("n=%d, reported at p%g", t.N, t.TailQ*100)
}

func (r *report) result(m out) result {
	for _, p := range r.problems {
		fmt.Println("INCORRECT:", p)
	}
	return result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// latencyMs returns a sample's latency in ms and whether it is in the
// inline class (d <= 1) rather than the escalated one (d >= 2).
func latencyMs(s sample) (float64, bool) { return ms(int64(s.latency())), s.Dist <= 1 }

// windowStats are a window's end-to-end figures, each the median over
// its slices of that slice's value (timings: see sliceTiming).
type windowStats struct {
	authsPerS, cpuMsPerAuth, slo float64
	inline, escalated            slicedTiming
	auths                        int
}

func statsOf(p *phase) windowStats {
	var rates, cpus, slos []float64
	var inline, escalated []float64 // in completion order
	var w windowStats
	off := 0
	for _, sl := range p.slices {
		ss := p.samples[off : off+sl.n]
		off += sl.n
		ok := 0
		for _, s := range ss {
			if s.OK {
				ok++
			}
			v, in := latencyMs(s)
			if in {
				inline = append(inline, v)
			} else {
				escalated = append(escalated, v)
			}
		}
		w.auths += ok
		rates = append(rates, float64(ok)/(float64(sl.to.t-sl.from.t)/1e9))
		if ok > 0 {
			cpus = append(cpus, ms(sl.to.snap.CPUNanos-sl.from.snap.CPUNanos)/float64(ok))
		}
		if len(ss) > 0 {
			slos = append(slos, sloOKRatio(ss))
		}
	}
	w.authsPerS, w.cpuMsPerAuth, w.slo = median(rates), median(cpus), median(slos)
	w.inline, w.escalated = sliceTiming(inline), sliceTiming(escalated)
	return w
}

func timingBasis(t slicedTiming, src string) string {
	return fmt.Sprintf("n=%d from %s; p50 median of %d groups; tail p%g, median of %d groups",
		t.N, src, t.P50Groups, t.TailQ*100, t.TailGroups)
}

// endToEnd builds the untraced run's metrics. The latency class the
// workload's lanes never produce is measured by its probe instead.
func (r *report) endToEnd(p *phase, setupS float64) (result, error) {
	m := out{}
	w := statsOf(p)
	var pin, pesc []float64
	for _, s := range p.probe {
		if v, in := latencyMs(s); in {
			pin = append(pin, v)
		} else {
			pesc = append(pesc, v)
		}
	}
	inline, inlineSrc := w.inline, "window"
	if inline.N == 0 {
		inline, inlineSrc = sliceTiming(pin), "probe"
	}
	escalated, escSrc := w.escalated, "window"
	if escalated.N == 0 {
		escalated, escSrc = sliceTiming(pesc), "probe"
	}
	for _, c := range []struct {
		name string
		t    slicedTiming
		src  string
	}{{"inline", inline, inlineSrc}, {"escalated", escalated, escSrc}} {
		if c.t.TailQ == 0 {
			return result{}, fmt.Errorf("%s latency: %d samples are too few to report a tail", c.name, c.t.N)
		}
		m.set(c.name+"_p50_ms", "ms", c.t.P50, timingBasis(c.t, c.src))
		m.set(c.name+"_p99_ms", "ms", c.t.Tail, timingBasis(c.t, c.src))
	}
	slices := fmt.Sprintf("median over %d slices", len(p.slices))
	m.set("auths_per_s", "1/s", w.authsPerS, fmt.Sprintf("%d auths, %s", w.auths, slices))
	m.set("slo_ok_ratio", "ratio", w.slo, fmt.Sprintf("%d attempts, %s", len(p.samples), slices))
	m.set("server_cpu_ms_per_auth", "ms", w.cpuMsPerAuth, slices)
	m.set("server_rss_mb", "MB", float64(p.last().snap.MaxRSSKiB)/1024, "peak RSS of the server process")
	m.set("setup_s", "s", setupS, fmt.Sprintf("median of %d setups", setupRuns))
	// fail_ratio is printed but kept out of the JSON metrics: it is 0 on
	// every workload, and a zero median has no relative spread to bound.
	printMetric("fail_ratio", "ratio", float64(r.failed)/float64(max(r.attempted, 1)),
		fmt.Sprintf("%d of %d attempts; in the JSON as failed/attempted", r.failed, r.attempted))
	r.printHealth(p)
	return r.result(m), nil
}

// printHealth prints the generator self-check of an untraced window.
func (r *report) printHealth(p *phase) {
	var lags []float64
	for _, s := range p.samples {
		lags = append(lags, ms(int64(s.genLag())))
	}
	t := summarize(lags)
	fmt.Printf("generator: lag tail %.4f ms (%s), client CPU %.4f ms/auth, %d dials, connection high-water %d of %d\n",
		t.Tail, tailBasis(t), ms(p.cpu)/float64(max(p.successes(), 1)), p.dials, r.connHigh, maxConns)
}

// perLayer builds the traced run's metrics: layer timings from the
// traced window's spans, generator health from the untraced window, and
// the tracing overhead as traced minus untraced.
func (r *report) perLayer(plain, traced *phase, st *serverTrace, spansOut string) (result, error) {
	m := out{}
	lt := buildSpans(traced, st)
	okN := float64(max(traced.successes(), 1))

	m.timingPair("netproto.dial_ms", lt.dial)
	m.timingPair("netproto.hello_rtt_ms", lt.helloRTT)
	m.timingPair("netproto.client_respond_ms", lt.respond)
	m.timingPair("netproto.result_wait_ms", lt.resultWait)
	m.set("netproto.bytes_per_auth", "bytes", float64(lt.bytes)/okN, fmt.Sprintf("n=%d auths", int(okN)))
	m.set("netproto.dials_per_auth", "count", float64(traced.dials)/okN, fmt.Sprintf("%d dials", traced.dials))
	m.timingPair("core.handshake_ms", lt.handshake)
	m.timingPair("core.handshake_self_ms", lt.handshakeSelf)
	m.timingPair("core.authenticate_ms", lt.authenticate)
	m.timingPair("core.authenticate_self_ms", lt.authenticateSelf)
	m.timingPair("durable.session_open_ms", lt.journal["durable.session_open"])
	m.timingPair("durable.session_close_ms", lt.journal["durable.session_close"])
	m.timingPair("durable.ra_key_update_ms", lt.journal["durable.ra_key_update"])
	m.set("durable.appends_per_auth", "count", float64(lt.appends)/okN, fmt.Sprintf("%d journal calls", lt.appends))

	ds := traced.last().snap.Sched
	s0 := traced.first().snap.Sched
	m.set("sched.escalated_ratio", "ratio", float64(ds.Submitted-s0.Submitted)/float64(max(len(traced.samples), 1)),
		fmt.Sprintf("%d submissions / %d attempts", ds.Submitted-s0.Submitted, len(traced.samples)))
	m.timingPair("sched.queue_wait_ms", lt.queueWait)
	m.timingPair("sched.service_ms", lt.service)
	m.set("sched.rejected", "count", float64(ds.Rejected-s0.Rejected), "Pool.Stats delta")
	m.set("sched.shed", "count", float64(ds.Shed-s0.Shed), "Pool.Stats delta")
	var search []float64
	for _, s := range traced.samples {
		if s.OK {
			search = append(search, s.Search*1000)
		}
	}
	m.timingPair("cpu.search_ms", search)

	var lags []float64
	for _, s := range plain.samples {
		lags = append(lags, ms(int64(s.genLag())))
	}
	lag := summarize(lags)
	m.set("driver.gen_lag_p99_ms", "ms", lag.Tail, tailBasis(lag)+", untraced window")
	m.set("driver.client_cpu_ms_per_auth", "ms", ms(plain.cpu)/float64(max(plain.successes(), 1)), "untraced window")
	m.set("driver.conn_high_water", "count", float64(r.connHigh), fmt.Sprintf("budget %d", maxConns))
	m.set("driver.fail_ratio", "ratio", float64(r.failed)/float64(max(r.attempted, 1)), fmt.Sprintf("%d of %d attempts", r.failed, r.attempted))

	a, b := statsOf(plain), statsOf(traced)
	m.set("trace.overhead_auths_per_s_pct", "%", 100*(b.authsPerS-a.authsPerS)/a.authsPerS,
		fmt.Sprintf("%.1f traced vs %.1f untraced", b.authsPerS, a.authsPerS))
	m.set("trace.overhead_server_cpu_ms_per_auth", "ms", b.cpuMsPerAuth-a.cpuMsPerAuth, "traced minus untraced")
	m.set("trace.overhead_inline_p50_ms", "ms", b.inline.P50-a.inline.P50, fmt.Sprintf("n=%d/%d", b.inline.N, a.inline.N))
	m.set("trace.overhead_escalated_p50_ms", "ms", b.escalated.P50-a.escalated.P50, fmt.Sprintf("n=%d/%d", b.escalated.N, a.escalated.N))
	m.set("trace.joined_ratio", "ratio", float64(lt.joined)/float64(max(len(traced.samples), 1)),
		"requests whose server connection joined by 4-tuple")
	m.set("trace.ring_dropped", "count", float64(st.RingTotal-uint64(len(st.Sched))), "scheduler events lost to ring wrap")

	if err := os.MkdirAll(filepath.Dir(spansOut), 0o755); err != nil {
		return result{}, err
	}
	if err := writeJSON(spansOut, lt.spans); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(lt.spans), spansOut)
	return r.result(m), nil
}
