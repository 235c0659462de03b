package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"time"
)

// maxReasons bounds how many failure reasons a run keeps for printing.
const maxReasons = 8

// recorder collects one run's operations: attempts, failures and their
// reasons, per-operation host latency per pass, per-layer samples from
// traced passes, and the digest of the simulated outputs. Workloads may
// call op from several goroutines.
type recorder struct {
	mu        sync.Mutex
	tr        *tracer // the current pass's tracer; nil when untraced
	pass      int
	passes    []passRecord
	attempted int
	failed    int
	reasons   []string
	notes     []string
	samples   map[string][]float64
	digest    hash.Hash
}

// passRecord is one pass: its host wall time and the latency of each
// operation it ran, in milliseconds.
type passRecord struct {
	traced bool
	wall   time.Duration
	lat    []float64
}

func newRecorder() *recorder {
	return &recorder{samples: make(map[string][]float64), digest: sha256.New()}
}

func (r *recorder) beginPass(p int, tr *tracer) {
	r.pass, r.tr = p, tr
	r.passes = append(r.passes, passRecord{traced: tr != nil})
}

func (r *recorder) endPass(wall time.Duration) {
	r.passes[len(r.passes)-1].wall = wall
}

// first reports whether this is the run's first pass: the one whose
// simulated outputs go into the digest and that later passes must
// reproduce.
func (r *recorder) first() bool { return r.pass == 0 }

// traced reports whether the current pass records spans and per-layer
// samples.
func (r *recorder) traced() bool { return r.tr != nil }

// op counts one attempted operation with its host latency; a non-nil
// err (a refused, failed or wrong-output operation) counts as failed.
func (r *recorder) op(latency time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	cur := &r.passes[len(r.passes)-1]
	cur.lat = append(cur.lat, float64(latency)/float64(time.Millisecond))
	if err != nil {
		r.failed++
		if len(r.reasons) < maxReasons {
			r.reasons = append(r.reasons, fmt.Sprintf("pass %d: %v", r.pass, err))
		}
	}
}

// failFrac is failed operations over attempted ones.
func (r *recorder) failFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// layer records one per-layer sample; only traced passes record.
func (r *recorder) layer(name string, v float64) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[name] = append(r.samples[name], v)
}

// sim folds one line of simulated output into the digest. Only the
// first pass writes, so the digest does not depend on how many passes
// fit in the measuring time. Callers write in a deterministic order.
func (r *recorder) sim(format string, args ...any) {
	if r.pass != 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.digest, format+"\n", args...)
}

// note adds a line to the printed report once.
func (r *recorder) note(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.notes {
		if n == line {
			return
		}
	}
	r.notes = append(r.notes, line)
}

func (r *recorder) simDigest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return hex.EncodeToString(r.digest.Sum(nil))[:32]
}
