package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// fingerprint describes the host and the run: enough to tell whether two
// results are comparable.
func fingerprint(root string, w *workload, env *runEnv, cfg runConfig, traced int) map[string]any {
	servers := make([][]string, w.servers)
	for i := range servers {
		servers[i] = append(env.commonServerArgs(), w.serverArgs(i, env.prep)...)
	}
	weights := map[string]float64{}
	for _, e := range mix {
		weights[e.endpoint] = e.weight
	}
	fp := map[string]any{
		"workload":      w.name,
		"seed":          cfg.seed,
		"trace":         traced,
		"window_s":      cfg.window.Seconds(),
		"warmup_s":      warmup.Seconds(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"commit":        commit(root),
		"companies":     w.companies,
		"corpus_seed":   corpusSeed,
		"topics":        topics,
		"server_flags":  servers,
		"router_flags":  routerFlags(w),
		"client":        map[string]any{"conns": w.conns, "loop": "closed", "reloads_after": w.reloads},
		"mix":           weights,
		"zipf":          zipfSkew,
		"filter_prob":   filterProb,
		"probes":        probeCount,
		"stream_length": cfg.streamLen(),
	}
	return fp
}

// routerFlags lists ibrouter's flags, nil when the workload has no router.
func routerFlags(w *workload) []string {
	if !w.routed {
		return nil
	}
	return append([]string{"-shards", "<server addresses>"}, routerArgs...)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source under test: the git commit when the checkout is a
// repository, otherwise "tree:" and a SHA-256 over the Go sources and go.mod.
func commit(root string) string {
	// Only a checkout's own .git counts: git would otherwise walk up into
	// whatever repository encloses the checkout.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		io.WriteString(h, rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes is the host's aggregate CPU time split from /proc/stat.
type cpuTimes struct{ total, steal float64 }

// hostSteal reads the host's CPU time and the share a hypervisor took for
// other guests; zero where /proc/stat is unreadable.
func hostSteal() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || i >= 8 { // user nice system idle iowait irq softirq steal
			break
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since returns the steal share of the CPU time elapsed since earlier.
func (t cpuTimes) since(earlier cpuTimes) float64 {
	return ratio(t.steal-earlier.steal, t.total-earlier.total)
}

// stealBySlice reads the host's steal share of each slice-long interval
// until ctx ends.
func stealBySlice(ctx context.Context, slice time.Duration) []float64 {
	tick := time.NewTicker(slice)
	defer tick.Stop()
	var shares []float64
	prev := hostSteal()
	for {
		select {
		case <-ctx.Done():
			return shares
		case <-tick.C:
			cur := hostSteal()
			shares = append(shares, cur.since(prev))
			prev = cur
		}
	}
}
