package main

import (
	"context"
	"os/exec"
	"syscall"
	"testing"
)

// A supremacy-16 run at a 0.15 budget fraction (half the workload's)
// ends over budget at the loosest bound with seed 1. Every such run
// must be counted as a failed operation of its typed kind, and the
// workload's success_frac must show it.
func TestBudgetFailureIsCounted(t *testing.T) {
	inst, err := supremacyInstance(1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	w := &inproc{qubits: 16, shots: 64, workers: 1}
	rep := newReport("supremacy16-lossy-2rank", &env{seed: 1})
	if _, ok := w.iterate(context.Background(), rep, inst, 0, false); ok {
		t.Fatal("run over budget reported success")
	}
	if rep.acct.attempted != 1 || rep.acct.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 of 1", rep.acct.attempted, rep.acct.failed)
	}
	if got := rep.acct.kinds["budget_exceeded"]; got != 1 {
		t.Fatalf("budget_exceeded counted %d times, want 1 (kinds %v)", got, rep.acct.kinds)
	}
	if rep.correct() || rep.acct.successFrac() != 0 {
		t.Fatalf("correct %v success_frac %v after the only run failed", rep.correct(), rep.acct.successFrac())
	}
}

// A state that differs from its reference by one ulp fails while the
// ledger claims lossless; a lossy state below its bound fails the
// fidelity check.
func TestVerifyCountsMismatches(t *testing.T) {
	ref := []complex128{complex(0.6, 0), complex(0, 0.8)}
	if _, msg := verify(ref, ref, 1); msg != "" {
		t.Fatalf("identical state rejected: %s", msg)
	}
	off := []complex128{complex(0.6, 0), complex(0, 0.8000000000000002)}
	if _, msg := verify(ref, off, 1); msg == "" {
		t.Fatal("lossless state one ulp off was accepted")
	}
	far := []complex128{complex(0.8, 0), complex(0, 0.6)}
	if _, msg := verify(ref, far, 0.99); msg == "" {
		t.Fatal("lossy state below its bound was accepted")
	}
	if _, msg := verify(ref, off, 0.99); msg != "" {
		t.Fatalf("lossy state within its bound rejected: %s", msg)
	}
}

// A child that dies on SIGTERM without handling it is recognised, so a
// just-started qcserve killed that way is noted rather than fatal.
func TestKilledBySignal(t *testing.T) {
	cmd := exec.Command("sleep", "10")
	if err := cmd.Start(); err != nil {
		t.Skip("no sleep binary:", err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); !killedBySignal(err) {
		t.Fatalf("SIGTERM exit not recognised: %v", err)
	}
	if killedBySignal(nil) {
		t.Fatal("clean exit taken for a signal")
	}
}
