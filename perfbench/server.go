package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"syscall"

	rbc "rbcsalted"
)

// The server under test runs in its own process: the benchmark binary
// re-executed as "serve". It talks to the generator over its stdin and
// stdout, one line per message:
//
//	server: LISTEN <addr>        once serving
//	generator: snap              server: SNAP <json serverSnap>
//	generator: stop              server: BYE (after writing -keys/-spans)
//
// EOF on stdin also shuts the server down.

// serverSnap is the server process's own view at one instant.
type serverSnap struct {
	CPUNanos  int64              `json:"cpu_ns"` // user + sys since exec
	MaxRSSKiB int64              `json:"maxrss_kib"`
	Sched     rbc.SchedulerStats `json:"sched"`
}

func takeSnap(node *rbc.ServerNode) serverSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return serverSnap{
		CPUNanos:  ru.Utime.Nano() + ru.Stime.Nano(),
		MaxRSSKiB: ru.Maxrss,
		Sched:     node.Pool.Stats(),
	}
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dataDir := fs.String("data", "", "durable data directory (empty: in-memory store)")
	keysPath := fs.String("keys", "", "write the RA's registered keys here at stop")
	spansPath := fs.String("spans", "", "trace the wire and journal layers and write them here at stop")
	if err := fs.Parse(args); err != nil {
		return err
	}

	node, rec, ln, err := startNode(*dataDir, *spansPath != "")
	if err != nil {
		return err
	}
	defer node.Close()
	served := make(chan error, 1)
	go func() { served <- node.Serve(ln) }()
	fmt.Printf("LISTEN %s\n", ln.Addr())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "snap":
			b, err := json.Marshal(takeSnap(node))
			if err != nil {
				return err
			}
			fmt.Printf("SNAP %s\n", b)
		case "stop":
			node.Proto.Close()
			if err := <-served; err != nil {
				return fmt.Errorf("serve: %w", err)
			}
			if err := writeServerFiles(node, rec, *keysPath, *spansPath); err != nil {
				return err
			}
			fmt.Println("BYE")
			return nil
		default:
			return fmt.Errorf("unknown command %q", in.Text())
		}
	}
	node.Proto.Close()
	return in.Err()
}

// startNode builds the server under test: rbc.NewServer with the
// zero-value config except enrollment and dataDir, listening on a
// loopback port. Traced, it also returns the recorder fed by a listener
// wrapper and by journal wrappers on the durable State's stores.
func startNode(dataDir string, traced bool) (*rbc.ServerNode, *serverRecorder, net.Listener, error) {
	cfg := rbc.ServerConfig{
		Clients:    clientIDs(numClients),
		EnrollSeed: enrollSeed,
		// Noiseless devices: every request's distance is the one the
		// generator injects through PUFClient.NoiseBits.
		PUFProfile: &rbc.PUFProfile{},
		DataDir:    dataDir,
	}
	var rec *serverRecorder
	if traced {
		rec = &serverRecorder{}
		// Keep every scheduler trace event of a run, not the last 1024.
		cfg.TraceDepth = 1 << 17
	}
	node, err := rbc.NewServer(cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("new server: %w", err)
	}
	if rec != nil && node.State != nil {
		j := timedJournal{inner: node.State, rec: rec}
		node.State.Sessions().SetJournal(j)
		node.State.RA().SetJournal(j)
		node.State.Images().SetJournal(j)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		node.Close()
		return nil, nil, nil, fmt.Errorf("listen: %w", err)
	}
	if rec != nil {
		ln = tracedListener{Listener: ln, rec: rec}
	}
	return node, rec, ln, nil
}

// writeServerFiles dumps the RA's keys (durable nodes only: the
// in-memory RA is not reachable through ServerNode) and the trace.
func writeServerFiles(node *rbc.ServerNode, rec *serverRecorder, keysPath, spansPath string) error {
	if keysPath != "" && node.State != nil {
		keys := make(map[string]string)
		for id, k := range node.State.RA().SnapshotKeys() {
			keys[string(id)] = hex.EncodeToString(k)
		}
		if err := writeJSON(keysPath, keys); err != nil {
			return err
		}
	}
	if spansPath != "" && rec != nil {
		conns, journal := rec.snapshot()
		st := serverTrace{Conns: conns, Journal: journal, Sched: node.Trace.Snapshot(), RingTotal: node.Trace.Total()}
		if err := writeJSON(spansPath, st); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewDecoder(bufio.NewReader(f)).Decode(v); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return nil
}
