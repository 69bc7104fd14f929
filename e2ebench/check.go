package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
	"mimicnet/internal/serve"
)

// Host identifies where and what was measured. Results from different
// fingerprints are never compared; the ledger flags them instead.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Gemm       string `json:"gemm_kernel"` // as ml dispatched it at run time
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"` // VCS revision when the build recorded one
	Source     string `json:"source_sha256"`
}

func hostFingerprint(srcRoot string) (Host, error) {
	src, err := sourceDigest(srcRoot)
	if err != nil {
		return Host{}, err
	}
	h := Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Gemm:       ml.GemmKernelName(),
		GoVersion:  runtime.Version(),
		Commit:     "none (not built in a git work tree)",
		Source:     src,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h, nil
}

// Key is a short digest of the whole fingerprint.
func (h Host) Key() string {
	b, _ := json.Marshal(h) // a struct of strings and ints always marshals
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, so a
// checkout without version-control metadata still names the code it
// measured. Hidden directories (build outputs, VCS state) are skipped.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".s" && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// hashResults is the SHA-256 of everything a full-fidelity or composed
// run reports, in a fixed byte layout: the three distributions, the
// per-flow FCTs in flow-ID order, and the event, packet and drop counts.
func hashResults(r cluster.Results) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(xs []float64) {
		u(uint64(len(xs)))
		for _, x := range xs {
			u(math.Float64bits(x))
		}
	}
	floats(r.FCTs)
	floats(r.Throughputs)
	floats(r.RTTs)
	ids := make([]string, 0, len(r.FCTByID))
	for id := range r.FCTByID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	u(uint64(len(ids)))
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
		u(math.Float64bits(r.FCTByID[id]))
	}
	u(r.Events)
	u(r.Packets)
	u(r.Drops)
	if r.Cancelled {
		u(1)
	} else {
		u(0)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashSummary is the SHA-256 of the deterministic part of a job's
// Summary: the estimate's distributions and counts, without wall-clock
// fields or whether the registry was hit. It is the projection of
// cluster.Results that the scheduler returns to clients.
func hashSummary(s serve.Summary) string {
	s.CacheHit = false
	s.TrainMs, s.ComposeMs, s.SimSecPerSec = 0, 0, 0
	b, _ := json.Marshal(s) // numbers and bools always marshal
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashFloats fingerprints scalar results such as W1 distances.
func hashFloats(xs ...float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Op is one checked operation: a job, a direct run, or a validation.
// Key names its deterministic inputs; two ops with the same key must
// produce the same Hash, within a run and, through the ledger, across
// runs of the same code on the same host.
type Op struct {
	Key  string `json:"key"`
	Hash string `json:"sha256,omitempty"`
	Err  string `json:"error,omitempty"`
}

// Checker records operations and their output checks.
type Checker struct {
	ops  []Op
	seen map[string]string // key → first hash in this run
}

func newChecker() *Checker { return &Checker{seen: map[string]string{}} }

// Record adds one operation. A non-nil err fails it; so does a hash that
// differs from an earlier op with the same key.
func (c *Checker) Record(key, hash string, err error) {
	op := Op{Key: key, Hash: hash}
	if err == nil && hash != "" {
		if prev, ok := c.seen[key]; ok && prev != hash {
			err = fmt.Errorf("result differs from an earlier run of the same inputs (%.12s vs %.12s)", hash, prev)
		} else if !ok {
			c.seen[key] = hash
		}
	}
	if err != nil {
		op.Err = err.Error()
	}
	c.ops = append(c.ops, op)
}

// Attempted and Failed count operations.
func (c *Checker) Attempted() int { return len(c.ops) }

func (c *Checker) Failed() int {
	n := 0
	for _, op := range c.ops {
		if op.Err != "" {
			n++
		}
	}
	return n
}

// Ledger keeps every result fingerprint seen in this checkout, grouped by
// host fingerprint, so runs of one seed are compared across processes.
type Ledger struct {
	Hosts map[string]*LedgerHost `json:"hosts"`
}

// LedgerHost is one host fingerprint's results.
type LedgerHost struct {
	Host    Host              `json:"host"`
	Results map[string]string `json:"results"`
}

// LedgerReport says what a ledger check compared and what it flagged.
type LedgerReport struct {
	Compared   int      `json:"compared"`
	Mismatched int      `json:"mismatched"`
	Added      int      `json:"added"`
	Flagged    []string `json:"flagged,omitempty"`
}

// checkLedger compares this run's results with the ledger at path under
// the same host fingerprint, fails mismatching ops, adds new results and
// writes the ledger back. Entries recorded under another fingerprint of
// the same source are flagged and not compared.
func checkLedger(path string, host Host, c *Checker) (LedgerReport, error) {
	var rep LedgerReport
	led := Ledger{Hosts: map[string]*LedgerHost{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &led); err != nil || led.Hosts == nil {
			rep.Flagged = append(rep.Flagged, "unreadable ledger replaced")
			led = Ledger{Hosts: map[string]*LedgerHost{}}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return rep, err
	}
	key := host.Key()
	for k, lh := range led.Hosts {
		if k != key && lh.Host.Source == host.Source {
			rep.Flagged = append(rep.Flagged, fmt.Sprintf(
				"results of this source from another host fingerprint (%s: %s, gomaxprocs %d, gemm %s) not compared",
				k, lh.Host.CPU, lh.Host.GOMAXPROCS, lh.Host.Gemm))
		}
	}
	mine := led.Hosts[key]
	if mine == nil {
		mine = &LedgerHost{Host: host, Results: map[string]string{}}
		led.Hosts[key] = mine
	}
	for i, op := range c.ops {
		if op.Hash == "" || op.Err != "" {
			continue
		}
		prev, ok := mine.Results[op.Key]
		switch {
		case !ok:
			mine.Results[op.Key] = op.Hash
			rep.Added++
		case prev != op.Hash:
			c.ops[i].Err = fmt.Sprintf("result differs from an earlier benchmark run of the same inputs (%.12s vs %.12s)", op.Hash, prev)
			rep.Compared++
			rep.Mismatched++
		default:
			rep.Compared++
		}
	}
	b, err := json.MarshalIndent(led, "", " ")
	if err != nil {
		return rep, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return rep, err
	}
	return rep, os.Rename(tmp, path)
}
