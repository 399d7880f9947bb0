package cli

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("boom"), 1},
		{Usagef("bad -x %q", "y"), 2},
		{Checkf("%d claims violated", 3), 3},
		{fmt.Errorf("wrapped: %w", Usagef("bad flag")), 2},
		{fmt.Errorf("wrapped: %w", Checkf("failed")), 3},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestTaggedErrorsFormatAndUnwrap(t *testing.T) {
	base := Usagef("unknown -kind %q", "bogus")
	if got := base.Error(); got != `unknown -kind "bogus"` {
		t.Errorf("message %q", got)
	}
	inner := errors.New("root cause")
	wrapped := Checkf("check: %w", inner)
	if !errors.Is(wrapped, inner) {
		t.Error("tagged error does not unwrap to its cause")
	}
}

func TestVersionIsWellFormed(t *testing.T) {
	v := Version()
	if v == "" || v == "unknown" {
		t.Fatalf("Version() = %q — test binaries always carry build info", v)
	}
	if !strings.Contains(v, "go1") {
		t.Errorf("Version() = %q, missing toolchain identity", v)
	}
	fields := strings.Fields(v)
	if arch := fields[len(fields)-1]; arch != runtime.GOARCH && !strings.HasPrefix(arch, runtime.GOARCH+"/") {
		t.Errorf("Version() = %q, missing target architecture %s", v, runtime.GOARCH)
	}
	if v2 := Version(); v2 != v {
		t.Errorf("Version() not stable: %q then %q", v, v2)
	}
}

func TestVersionFlag(t *testing.T) {
	// A private flag set mirrors what VersionFlag does on the default
	// one, without perturbing other tests' flags.
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	show := fs.Bool("version", false, "")
	done := func() bool { return *show }
	if err := fs.Parse([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
	if !done() {
		t.Error("-version parsed but not reported")
	}
}
