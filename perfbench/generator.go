package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	rbc "rbcsalted"
)

// requestTimeout bounds one authentication on the generator side; the
// slowest request of any workload (d = 3 under load) takes ~1 s.
const requestTimeout = 30 * time.Second

// serverProc is one server-mode child process.
type serverProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Scanner
	addr   string
	setup  time.Duration
	waited bool
}

// startServer execs the server, waits until it answers a connection and
// returns with setup set to that delay: enrollment, WAL open, listen
// and the first accepted connection.
func startServer(exe string, args ...string) (*serverProc, error) {
	t0 := time.Now()
	cmd := exec.Command(exe, append([]string{"serve"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	line, err := s.readLine("LISTEN ")
	if err != nil {
		s.kill()
		return nil, err
	}
	s.addr = line
	if err := probeServer(s.addr); err != nil {
		s.kill()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// probeServer sends a hello for a client the server does not know; the
// unknown-client refusal proves the server accepted and served a
// connection without touching any enrolled client's state.
func probeServer(addr string) error {
	dev, err := rbc.NewPUFDevice(0, 1024, rbc.PUFProfile{})
	if err != nil {
		return err
	}
	cl, err := rbc.Dial(rbc.ClientConfig{Addrs: []string{addr}, MaxAttempts: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_, err = cl.Authenticate(ctx, rbc.ClientAuthRequest{Device: &rbc.PUFClient{ID: "setup-probe", Device: dev}})
	var se *rbc.ServerError
	if errors.As(err, &se) && se.Status == rbc.StatusUnknownClient {
		return nil
	}
	return fmt.Errorf("setup probe: want unknown-client refusal, got %v", err)
}

func (s *serverProc) readLine(prefix string) (string, error) {
	if !s.out.Scan() {
		if err := s.out.Err(); err != nil {
			return "", fmt.Errorf("server output: %w", err)
		}
		return "", errors.New("server exited before answering")
	}
	line := s.out.Text()
	if !strings.HasPrefix(line, prefix) {
		return "", fmt.Errorf("server said %q, want %q...", line, prefix)
	}
	return strings.TrimPrefix(line, prefix), nil
}

func (s *serverProc) snap() (serverSnap, error) {
	var sn serverSnap
	if _, err := io.WriteString(s.stdin, "snap\n"); err != nil {
		return sn, fmt.Errorf("server snap: %w", err)
	}
	line, err := s.readLine("SNAP ")
	if err != nil {
		return sn, err
	}
	return sn, json.Unmarshal([]byte(line), &sn)
}

// stop asks the server to write its files and exit, and waits for it.
func (s *serverProc) stop() error {
	if _, err := io.WriteString(s.stdin, "stop\n"); err != nil {
		s.kill()
		return fmt.Errorf("server stop: %w", err)
	}
	_, err := s.readLine("BYE")
	s.stdin.Close()
	werr := s.cmd.Wait()
	s.waited = true
	if err != nil {
		return err
	}
	if werr != nil {
		return fmt.Errorf("server exit: %w", werr)
	}
	return nil
}

// kill ends the process if stop did not; safe on every path.
func (s *serverProc) kill() {
	if s.waited {
		return
	}
	s.stdin.Close()
	_ = s.cmd.Process.Kill() // may already have exited
	_ = s.cmd.Wait()         // its exit status is the kill
	s.waited = true
}

// benchClient is one enrolled device, built once and reused.
type benchClient struct {
	dev     *rbc.PUFClient
	lastKey []byte
}

// lane is a laneSpec bound to its clients and its random stream.
type lane struct {
	spec    laneSpec
	clients []*benchClient
	next    int
	rng     *rand.Rand
}

// laneRun is what one lane produced in one phase.
type laneRun struct {
	samples    []sample
	violations []string
}

// run drives the lane from start until stop: closed loop until stop,
// open loop through every send due before stop. Requests in flight at
// stop complete and are kept.
func (l *lane) run(cl *rbc.Client, start, stop time.Time, traced bool, reqIDs *atomic.Uint64) laneRun {
	var out laneRun
	var offsets []time.Duration
	if l.spec.Rate > 0 {
		offsets = poissonOffsets(l.rng, l.spec.Rate, stop.Sub(start))
	}
	prevEnd := start.UnixNano()
	for i := 0; ; i++ {
		s := sample{Ready: prevEnd}
		if l.spec.Rate > 0 {
			if i >= len(offsets) {
				break
			}
			s.Open = true
			s.Due = start.Add(offsets[i]).UnixNano()
			s.Ready = max(s.Due, prevEnd)
			if d := time.Until(time.Unix(0, s.Ready)); d > 0 {
				time.Sleep(d)
			}
		} else if !time.Now().Before(stop) {
			break
		}
		s.Dist = l.spec.Dists[l.rng.IntN(len(l.spec.Dists))]
		c := l.clients[l.next]
		l.next = (l.next + 1) % len(l.clients)
		c.dev.NoiseBits = s.Dist
		s.Client = string(c.dev.ID)

		ctx := context.Background()
		if traced {
			s.trace = &reqTrace{}
			s.Req = reqIDs.Add(1)
			ctx = context.WithValue(ctx, reqKey{}, s.trace)
		}
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		s.Start = now()
		res, err := cl.Authenticate(ctx, rbc.ClientAuthRequest{Device: c.dev, Class: l.spec.Class})
		s.End = now()
		cancel()
		prevEnd = s.End
		s.Search = res.SearchSeconds

		switch {
		case err != nil:
			s.Err = err.Error()
		case !res.Authenticated:
			s.Err = "authenticated=false"
		default:
			s.OK = true
			if len(res.PublicKey) == 0 {
				out.violations = append(out.violations, fmt.Sprintf("%s: empty public key", c.dev.ID))
			} else if bytes.Equal(res.PublicKey, c.lastKey) {
				out.violations = append(out.violations, fmt.Sprintf("%s: key not rotated", c.dev.ID))
			}
			c.lastKey = res.PublicKey
		}
		out.samples = append(out.samples, s)
	}
	return out
}

// numSlices is how many slices a window is cut into. Every windowed
// end-to-end metric is the median over slices, so interference from
// outside the benchmark that lasts a few seconds moves it little.
const numSlices = 10

// cut is a server snapshot and when it was taken.
type cut struct {
	t    int64
	snap serverSnap
}

// slice is one measured stretch of a window, between two snapshots; its
// n samples are the next n of phase.samples.
type slice struct {
	from, to cut
	n        int
}

// phase is one measured window against one server.
type phase struct {
	samples    []sample // by slice, each slice in completion order
	probe      []sample
	violations []string
	slices     []slice
	cpu        int64 // generator CPU over the slices, ns
	dials      int
}

func (p *phase) first() cut { return p.slices[0].from }
func (p *phase) last() cut  { return p.slices[len(p.slices)-1].to }

func (p *phase) successes() int {
	n := 0
	for _, s := range p.samples {
		if s.OK {
			n++
		}
	}
	return n
}

// generator is the load generator: the lanes, their devices and the dialer.
type generator struct {
	w      workload
	lanes  []*lane
	probes []*lane // the workload's probe, one lane per lane, on its clients
	dialer *dialer
	reqIDs atomic.Uint64 // trace request IDs
}

func newGenerator(w workload, seed uint64) (*generator, error) {
	d := &generator{w: w, dialer: &dialer{}}
	per := numClients / len(w.Lanes)
	ids := clientIDs(numClients)
	for li, spec := range w.Lanes {
		rng := rand.New(rand.NewPCG(seed, uint64(li)+1))
		l := &lane{spec: spec, rng: rng}
		for _, ci := range rng.Perm(per) {
			i := li*per + ci
			dev, err := rbc.NewPUFDevice(enrollSeed+uint64(i), 1024, rbc.PUFProfile{})
			if err != nil {
				return nil, err
			}
			l.clients = append(l.clients, &benchClient{dev: &rbc.PUFClient{ID: rbc.ClientID(ids[i]), Device: dev}})
		}
		d.lanes = append(d.lanes, l)
	}
	if w.Probe != nil {
		for i, l := range d.lanes {
			rng := rand.New(rand.NewPCG(seed, uint64(len(d.lanes)+i+1)))
			d.probes = append(d.probes, &lane{spec: *w.Probe, clients: l.clients, rng: rng})
		}
	}
	return d, nil
}

// resetKeys forgets the keys seen so far: a fresh server starts with an
// empty RA.
func (d *generator) resetKeys() {
	for _, l := range d.lanes {
		for _, c := range l.clients {
			c.lastKey = nil
		}
	}
}

// runLanes drives lanes concurrently from start for span and merges
// what they produced.
func (d *generator) runLanes(lanes []*lane, addr string, start time.Time, span time.Duration, traced bool) (laneRun, error) {
	cl, err := rbc.Dial(rbc.ClientConfig{Addrs: []string{addr}, DialContext: d.dialer.dial, MaxAttempts: 1})
	if err != nil {
		return laneRun{}, err
	}
	defer cl.Close()
	stop := start.Add(span)
	runs := make([]laneRun, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = l.run(cl, start, stop, traced, &d.reqIDs)
		}()
	}
	wg.Wait()
	var all laneRun
	for _, r := range runs {
		all.samples = append(all.samples, r.samples...)
		all.violations = append(all.violations, r.violations...)
	}
	return all, nil
}

// measure warms the server up, then measures numSlices slices. Each
// slice runs the workload's lanes for window/numSlices between two
// server snapshots and, on a workload with a probe, then the probe lanes
// for probe/numSlices. Interleaving the probe with the window spreads
// both over the whole run, so outside interference hits them alike and
// the medians over slices can discount it. A slice ends when its last
// request completes, so the CPU and time it charges belong to exactly
// the requests it counts.
func (d *generator) measure(srv *serverProc, warm, window, probe time.Duration, traced bool) (*phase, error) {
	w, err := d.runLanes(d.lanes, srv.addr, time.Now(), warm, false)
	if err != nil {
		return nil, err
	}
	p := &phase{violations: w.violations}
	if probe > 0 {
		// The window may never touch a layer the probe needs (the cpu
		// backend, on inline-wal): warm it too.
		if w, err = d.runLanes(d.probes, srv.addr, time.Now(), warm/4, false); err != nil {
			return nil, err
		}
		p.violations = append(p.violations, w.violations...)
	}
	for range numSlices {
		from, err := srv.snap()
		if err != nil {
			return nil, err
		}
		sl := slice{from: cut{now(), from}}
		cpu0 := selfCPU()
		dials0, _ := d.dialer.counts()
		r, err := d.runLanes(d.lanes, srv.addr, time.Now(), window/numSlices, traced)
		if err != nil {
			return nil, err
		}
		dials1, _ := d.dialer.counts()
		p.cpu += selfCPU() - cpu0
		p.dials += dials1 - dials0
		to, err := srv.snap()
		if err != nil {
			return nil, err
		}
		sl.to, sl.n = cut{now(), to}, len(r.samples)
		p.slices = append(p.slices, sl)
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].End < r.samples[j].End })
		p.samples = append(p.samples, r.samples...)
		p.violations = append(p.violations, r.violations...)
		if probe > 0 {
			pr, err := d.runLanes(d.probes, srv.addr, time.Now(), probe/numSlices, false)
			if err != nil {
				return nil, err
			}
			p.probe = append(p.probe, pr.samples...)
			p.violations = append(p.violations, pr.violations...)
		}
	}
	return p, nil
}

// checkKeys compares the RA the server dumped with the last key each
// client received: equal for every client that authenticated, absent
// for every client that did not.
func (d *generator) checkKeys(path string) ([]string, error) {
	var dump map[string]string
	if err := readJSON(path, &dump); err != nil {
		return nil, err
	}
	var bad []string
	for _, l := range d.lanes {
		for _, c := range l.clients {
			got, ok := dump[string(c.dev.ID)]
			switch {
			case c.lastKey == nil && ok:
				bad = append(bad, fmt.Sprintf("%s: RA holds a key the client never received", c.dev.ID))
			case c.lastKey != nil && got != hex.EncodeToString(c.lastKey):
				bad = append(bad, fmt.Sprintf("%s: RA key differs from the last key received", c.dev.ID))
			}
		}
	}
	return bad, nil
}

func selfCPU() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Utime.Nano() + ru.Stime.Nano()
}
