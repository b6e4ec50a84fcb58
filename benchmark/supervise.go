package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Every run happens in a child process, so that a panic in the program,
// a degraded cluster or a hang becomes a number (un-run ops counted as
// failed) and not a missing result, and so that one workload's heap and
// peak RSS never colour the next one's.

// childEnv marks a process as the measuring child of a supervisor.
const childEnv = "DARRAY_BENCH_CHILD"

// deadlineFor is the wall-clock budget of one child: about five times
// what the run should take, and inside the 180 s a driver run may last.
func deadlineFor(seconds float64) time.Duration {
	return time.Duration(min(5*seconds+60, 170) * float64(time.Second))
}

func (o childOpts) args() []string {
	trace := "0"
	if o.traced {
		trace = "1"
	}
	return []string{
		"-workload", o.w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace,
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-inject", o.inject,
		"-outdir", o.outdir,
	}
}

// supervise runs o in a child process under a deadline and returns its
// result. A child that dies or is killed yields a result whose un-run
// ops are failed and whose Error says what happened; its stderr (with
// the goroutine dump SIGQUIT provokes) is saved under o.outdir.
func supervise(o childOpts) *runResult {
	res, stderr, err := runUnderDeadline(o, deadlineFor(o.seconds))
	if err == nil {
		return res
	}
	name := "crash-" + o.w.name + ".log"
	if o.outdir != "" && os.MkdirAll(o.outdir, 0o755) == nil {
		if werr := os.WriteFile(filepath.Join(o.outdir, name), stderr, 0o644); werr == nil {
			err = fmt.Errorf("%w (stderr saved as %s)", err, filepath.Join(o.outdir, name))
		}
	}
	res.Error = err.Error()
	return res
}

// runUnderDeadline returns the child's result and nil, or a synthesized
// failure result, the child's stderr and the reason.
func runUnderDeadline(o childOpts, deadline time.Duration) (*runResult, []byte, error) {
	failed := &runResult{Workload: o.w.name, Traced: o.traced, Seed: o.seed, Unit: o.w.unit,
		Metrics: metrics{}, Host: thisHost()}
	failed.setFailed(1, 1) // until the child says how many ops it planned
	exe, err := os.Executable()
	if err != nil {
		return failed, nil, err
	}
	cmd := exec.Command(exe, o.args()...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return failed, nil, err
	}
	if err := cmd.Start(); err != nil {
		return failed, nil, err
	}

	// On the deadline ask the Go runtime for a goroutine dump (SIGQUIT),
	// then make sure the child is gone.
	timedOut := make(chan struct{})
	timer := time.AfterFunc(deadline, func() {
		close(timedOut)
		_ = cmd.Process.Signal(syscall.SIGQUIT) // the child may already have exited
		time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
	})

	var planned, done int64
	var res *runResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var line struct {
			progressLine
			Result *runResult `json:"result"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // not ours: the program printed something
		}
		if line.Result != nil {
			res = line.Result
		}
		if line.Planned > 0 {
			planned = line.Planned
		}
		done = max(done, line.Done)
	}
	werr := cmd.Wait()
	timer.Stop()

	if res != nil && werr == nil {
		return res, nil, nil
	}
	if planned > 0 {
		failed.setFailed(planned, planned-done)
	}
	select {
	case <-timedOut:
		return failed, stderr.Bytes(), fmt.Errorf("killed at the %v deadline after %d of %d ops", deadline, done, planned)
	default:
	}
	if werr == nil {
		werr = fmt.Errorf("exited without a result")
	}
	return failed, stderr.Bytes(), fmt.Errorf("child died after %d of %d ops: %w", done, planned, werr)
}

// childMain is the measuring child: it runs one workload in this
// process and prints progress lines and, last, its result.
func childMain(o childOpts) {
	res := runChild(o, os.Stdout)
	if err := json.NewEncoder(os.Stdout).Encode(struct {
		Result *runResult `json:"result"`
	}{res}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: child:", err)
		os.Exit(1)
	}
}
