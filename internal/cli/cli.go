// Package cli fixes the exit-code conventions shared by the repo's
// commands, so scripts and CI can branch on them:
//
//	0  success
//	1  runtime failure (simulation error, I/O, ...)
//	2  usage error — a flag value the command cannot act on (matching
//	   the exit code the flag package uses for unparsable flags)
//	3  failed check or unavailable resource — the command ran fine but
//	   what it verified did not hold (e.g. `tables -shape` finding a
//	   qualitative claim violated), or a resource it depends on could
//	   not be opened (e.g. `simd` failing to open or replay its job
//	   journal at boot)
package cli

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"runtime/debug"
)

// kindError tags an error with its exit code.
type kindError struct {
	code int
	err  error
}

func (e *kindError) Error() string { return e.err.Error() }
func (e *kindError) Unwrap() error { return e.err }

// Usagef builds a usage error (exit code 2).
func Usagef(format string, args ...any) error {
	return &kindError{code: 2, err: fmt.Errorf(format, args...)}
}

// Checkf builds a failed-check error (exit code 3).
func Checkf(format string, args ...any) error {
	return &kindError{code: 3, err: fmt.Errorf(format, args...)}
}

// Resourcef builds a resource error (exit code 3): a store or file the
// command cannot run without failed to open or read — distinct from a
// usage error (the request was fine) and worth a distinct exit code so
// supervisors can tell "fix the flags" from "fix the disk".
func Resourcef(format string, args ...any) error {
	return &kindError{code: 3, err: fmt.Errorf(format, args...)}
}

// ExitCode maps an error from a command's run function to its process
// exit code: nil is 0, tagged errors carry their own code, anything
// else is a runtime failure.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var ke *kindError
	if errors.As(err, &ke) {
		return ke.code
	}
	return 1
}

// Version returns the build identity of the running binary, assembled
// from the metadata the Go linker embeds: module version, VCS revision
// (with a +dirty marker for modified trees), toolchain and target
// architecture with its GOAMD64/GOARM64 level — e.g. "devel 1a2b3c4d5e6f
// go1.24.0 amd64/v1". The architecture is part of the identity because
// the float semantics are: the compiler may fuse x*y+z into one FMA on
// arm64 (and on amd64 at v3), so the same revision built for another
// target can produce different result bits. It never fails — a binary
// built without build info reports "unknown".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	var rev, dirty, level string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		case "GOAMD64", "GOARM64":
			level = "/" + s.Value
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		v += " " + rev + dirty
	}
	return v + " " + bi.GoVersion + " " + runtime.GOARCH + level
}

// VersionFlag registers -version on the default flag set. The returned
// func is called after flag.Parse: it prints the build identity when
// the flag was set and reports whether the command should exit (so a
// main reads `if done() { return nil }`).
func VersionFlag() func() bool {
	show := flag.Bool("version", false, "print build version and exit")
	return func() bool {
		if *show {
			fmt.Println(Version())
		}
		return *show
	}
}
