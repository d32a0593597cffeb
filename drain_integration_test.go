package hiddenlayer

import (
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestBinaryDrainWait pins the shutdown path ibserve and ibrouter share:
// started with -drain-wait 1s and sent SIGTERM, each binary answers /readyz
// with 503 {"status":"draining"} during the wait while queries still answer
// 200, then exits 0 logging "drained and stopped". The router drains first,
// so its drain-time query still has a live shard behind it.
func TestBinaryDrainWait(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	ibgen := buildTool(t, dir, "ibgen")
	ibtrain := buildTool(t, dir, "ibtrain")
	ibserve := buildTool(t, dir, "ibserve")
	ibrouter := buildTool(t, dir, "ibrouter")

	corpusPath := filepath.Join(dir, "corpus.jsonl")
	modelPath := filepath.Join(dir, "lda.gob")
	runTool(t, ibgen, "-companies", "60", "-seed", "4", "-out", corpusPath)
	runTool(t, ibtrain, "-model", "lda", "-topics=2", "-corpus", corpusPath, "-out", modelPath, "-seed", "1")

	shard := startProc(t, ibserve, false, "-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-quiet", "-drain-wait", "1s")
	router := startProc(t, ibrouter, false, "-shards", strings.TrimPrefix(shard.base, "http://"),
		"-addr", "localhost:0", "-quiet", "-drain-wait", "1s")

	for _, p := range []struct {
		name string
		proc *shardProc
	}{{"ibrouter", router}, {"ibserve", shard}} {
		if code, _ := httpGetBody(t, p.proc.base+"/readyz"); code != http.StatusOK {
			t.Fatalf("%s /readyz before SIGTERM = %d", p.name, code)
		}
		if err := p.proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		code, body := httpGetBody(t, p.proc.base+"/readyz")
		for deadline := time.Now().Add(time.Second); code == http.StatusOK && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			code, body = httpGetBody(t, p.proc.base+"/readyz")
		}
		if code != http.StatusServiceUnavailable || string(body) != "{\"status\":\"draining\"}\n" {
			t.Fatalf("%s /readyz after SIGTERM = %d %q, want 503 draining", p.name, code, body)
		}
		if code, body := httpGetBody(t, p.proc.base+"/v1/similar/5?k=3"); code != http.StatusOK {
			t.Fatalf("%s query during drain wait = %d %s, want 200", p.name, code, body)
		}

		waited := make(chan error, 1)
		go func() { waited <- p.proc.cmd.Wait() }()
		select {
		case err := <-waited:
			if err != nil {
				t.Fatalf("%s exited uncleanly: %v\nstderr:\n%s", p.name, err, p.proc.stderr.String())
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not exit within 15s of SIGTERM", p.name)
		}
		p.proc.cmd.Process = nil // disarm the cleanup Kill
		if !strings.Contains(p.proc.stderr.String(), "drained and stopped") {
			t.Fatalf("%s logged no drain line; stderr:\n%s", p.name, p.proc.stderr.String())
		}
	}
}
