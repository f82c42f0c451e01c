package e2e

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDebugHooksGate: every fault-injection flag is refused unless
// -debug-hooks is also set. The daemon must exit non-zero at start-up,
// naming the flag that needs it, instead of running a production
// process with faults armed.
func TestDebugHooksGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real daemon binaries")
	}
	tmp := t.TempDir()
	sched := writeSchedule(t, tmp, "gate.sched", "seed 1\nfault drop dir=in count=1\n")
	params := filepath.Join(tmp, "deployment.json")
	bins := map[string]string{}
	for _, tc := range []struct {
		daemon, flag string
		args         []string
	}{
		{"monitord", "-fault-schedule", []string{"-params", params, "-fault-schedule", sched}},
		{"monitord", "-debug-fsync-stall", []string{"-params", params, "-debug-fsync-stall", "1s"}},
		{"auditord", "-fault-schedule", []string{"-sources", "mon=127.0.0.1:1", "-fault-schedule", sched}},
		{"trustdomaind", "-fault-schedule", []string{"-params", params, "-fault-schedule", sched}},
	} {
		t.Run(tc.daemon+tc.flag, func(t *testing.T) {
			if bins[tc.daemon] == "" {
				bins[tc.daemon] = buildDaemon(t, tmp, tc.daemon)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bins[tc.daemon], tc.args...).CombinedOutput()
			var exit *exec.ExitError
			if ctx.Err() != nil || !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("%s %s without -debug-hooks: err=%v (timed out: %v), want a non-zero exit; log:\n%s",
					tc.daemon, tc.flag, err, ctx.Err() != nil, out)
			}
			if want := tc.flag + " requires -debug-hooks"; !strings.Contains(string(out), want) {
				t.Fatalf("%s log does not say %q:\n%s", tc.daemon, want, out)
			}
		})
	}
}
