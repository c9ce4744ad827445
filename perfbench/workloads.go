package main

import (
	"fmt"

	rbc "rbcsalted"
)

const (
	// numClients are enrolled on every server; each lane owns a disjoint
	// slice of them, because two concurrent handshakes on one client ID
	// supersede each other's session and fail with no-session.
	numClients = 256
	// enrollSeed is the device-seed base shared by server enrollment and
	// the generator's devices (client i uses enrollSeed+i).
	enrollSeed = 1
	// maxConns is the reference host's core count. The generator never
	// holds more connections than this; a run whose high-water mark
	// exceeds it is reported incorrect.
	maxConns = 2
)

func clientIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%03d", i)
	}
	return ids
}

// laneSpec is one request stream. A closed-loop lane sends its next
// request when the previous reply arrives; an open-loop lane sends on a
// Poisson schedule regardless, queueing behind its own connection.
type laneSpec struct {
	Class rbc.QoSClass
	// Dists are the Hamming distances injected through
	// PUFClient.NoiseBits, one drawn uniformly per request.
	Dists []int
	// Rate is the open-loop send rate per second; 0 means closed loop.
	Rate float64
}

// workload is one traffic mix against one server configuration. The
// server takes rbc.ServerConfig's zero-value defaults except DataDir,
// set when Durable (default WAL policy: interval fsync).
type workload struct {
	Name    string
	Durable bool
	Lanes   []laneSpec
	// Probe, when set, is the latency class the lanes never produce,
	// so that class is still measured on this server configuration. It
	// takes ProbeShare of the run's measured time, interleaved with the
	// window's slices, on as many closed-loop lanes as the workload has.
	// Probe requests count as attempts but not toward throughput, CPU
	// or the SLO ratio.
	Probe      *laneSpec
	ProbeShare float64
}

var healthy = []int{0, 1} // a healthy PUF read lands at d <= 1

var workloads = []workload{
	{
		// The common healthy-PUF auth: wire, handshake, the inline d <= 1
		// search, keygen and three WAL appends. sched and the cpu backend
		// stay idle.
		Name:    "inline-wal",
		Durable: true,
		Lanes: []laneSpec{
			{Dists: healthy},
			{Dists: healthy},
		},
		Probe:      &laneSpec{Dists: []int{2}},
		ProbeShare: 0.25,
	},
	{
		// Every request misses the inline shells and escalates through
		// sched into the cpu backend's d = 2 shell; no durable layer.
		Name: "escalate-d2",
		Lanes: []laneSpec{
			{Dists: []int{2}},
			{Dists: []int{2}},
		},
		// The inline tail needs the longer probe: over 6 s its p99
		// spread 29% across seeds, against 10% for inline-wal's 18 s.
		Probe:      &laneSpec{Dists: healthy},
		ProbeShare: 0.5,
	},
	{
		// The inline path sharing the CPU with deep background searches.
		Name:    "mixed-tail",
		Durable: true,
		Lanes: []laneSpec{
			{Class: rbc.ClassBackground, Dists: []int{2}},
			{Class: rbc.ClassInteractive, Dists: healthy, Rate: 20},
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
