package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles this command into dir and returns the binary path.
func buildCLI(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "experiments")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// Stdout carries only the markdown tables; commentary like the Fig 11
// geo-mean summary and the sweep progress lines live on stderr, keeping
// stdout safe to pipe into a parser.
func TestStdoutIsMachineParsable(t *testing.T) {
	bin := buildCLI(t, t.TempDir())
	for _, tc := range []struct {
		args   []string
		stderr string // substring the human-facing stream must carry
	}{
		{[]string{"-run", "table2,table3,mtbf"}, ""},
		{[]string{"-run", "fig11", "-trials", "2000"}, "geo-mean UDR reduction"},
		{[]string{"-run", "fig4", "-ops", "2000", "-warmup", "500", "-workloads", "hashmap"}, "1 workloads x 3 modes"},
		{[]string{"-run", "stats", "-workloads", "hashmap", "-modes", "SAC", "-ops", "2000", "-warmup", "500", "-check"}, "verified on every read"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr:\n%s", tc.args, err, stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if line == "" {
				continue
			}
			if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "|") {
				t.Errorf("%v: non-table stdout line: %q", tc.args, line)
			}
		}
		if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr missing %q:\n%s", tc.args, tc.stderr, stderr.String())
		}
	}
}

// The Monte Carlo runs that used to be the faultsim command — one FIT
// point and a FIT sweep — keep the same contract: every run header,
// progress line and wall-clock figure goes to stderr, so piping stdout
// into a parser (or diffing two runs) never sees nondeterministic text.
func TestFaultSimStdoutIsMachineParsable(t *testing.T) {
	bin := buildCLI(t, t.TempDir())
	for _, tc := range []struct {
		args   []string
		stderr []string // substrings the human-facing stream must carry
	}{
		{[]string{"-run", "fig12", "-fit", "40", "-trials", "3000", "-seed", "5"}, []string{"trials"}},
		{[]string{"-run", "fig11", "-fits", "20,80", "-trials", "2000", "-seed", "5", "-progress"}, []string{"trials", "fig11: "}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr:\n%s", tc.args, err, stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if line == "" {
				continue
			}
			if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "|") {
				t.Errorf("%v: non-table stdout line: %q", tc.args, line)
			}
		}
		for _, want := range tc.stderr {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%v: stderr missing %q:\n%s", tc.args, want, stderr.String())
			}
		}
	}
}

// A name the command does not know is an error that lists the valid
// names, whether it is an experiment, a workload or a mode; nothing is
// printed to stdout and the exit status is 1.
func TestUnknownNamesAreRejected(t *testing.T) {
	bin := buildCLI(t, t.TempDir())
	for _, tc := range []struct {
		args   []string
		stderr []string // substrings the error must carry
	}{
		{[]string{"-run", "fig11x"}, []string{`unknown experiment "fig11x"`, "fig11", "stats"}},
		{[]string{"-run", "fig4", "-workloads", "nope", "-ops", "100"}, []string{`unknown workload "nope"`, "hashmap"}},
		{[]string{"-run", "stats", "-modes", "SRC,fast"}, []string{`"fast"`}},
		{[]string{"-run", "fig4", "-modes", "SAC"}, []string{"-modes applies only to -run stats"}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1\nstderr:\n%s", tc.args, err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout not empty:\n%s", tc.args, stdout.String())
		}
		for _, want := range tc.stderr {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%v: stderr missing %q:\n%s", tc.args, want, stderr.String())
			}
		}
	}
}
