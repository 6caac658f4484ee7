package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSigtermRightAfterHealthz guards the start-up order: the signal
// handler must exist before the listener answers, so a SIGTERM sent the
// instant /healthz first reports healthy still drains, flushes the store
// it just loaded and exits 0. It runs the real binary, since the window is
// between two lines of run().
func TestSigtermRightAfterHealthz(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pgsserve binary")
	}
	bin := filepath.Join(t.TempDir(), "pgsserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for i := 0; i < 20; i++ {
		if err := sigtermAfterHealthz(bin, t.TempDir()); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// sigtermAfterHealthz starts bin on a fresh diskstore in dir, sends
// SIGTERM as soon as /healthz answers 200, and requires a clean exit.
func sigtermAfterHealthz(bin, dir string) error {
	// Choosing the port here, not reading it from the child's log, lets
	// the probe race the child's start-up instead of trailing it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := lis.Addr().String()
	lis.Close()

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-dataset", "MED", "-card", "10",
		"-backend", "diskstore", "-data-dir", dir, "-addr", addr)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	// The child's log is complete, and safe to read, only once Wait returns.
	killedLog := func() string {
		cmd.Process.Kill()
		<-exited
		return stderr.String()
	}

	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-exited:
			return fmt.Errorf("exited before answering /healthz: %v\n%s", err, stderr.String())
		default:
		}
		if resp, err := client.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("never became healthy\n%s", killedLog())
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("send SIGTERM: %v\n%s", err, killedLog())
	}
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("exit after SIGTERM: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("still running 30s after SIGTERM\n%s", killedLog())
	}
	if !strings.Contains(stderr.String(), "pgsserve: bye") {
		return fmt.Errorf("exited 0 without draining\n%s", stderr.String())
	}
	return nil
}
