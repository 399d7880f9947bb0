package main

import (
	"runtime"
	"runtime/debug"
)

// hostContext records what a result depends on besides the code: the
// CPUs, the toolchain and its build settings, and the commit.
func hostContext(nproc int) map[string]any {
	h := map[string]any{
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"goamd64":    "",
		"pgo":        "off",
		"commit":     "unknown (not built from a git checkout)",
		// Every op draws a fresh seed and every run is a fresh process;
		// only cluster-jobs repeats specs on purpose (its resubmissions).
		"caches": "cold",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h["goamd64"] = s.Value
			case "-pgo":
				h["pgo"] = s.Value
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["dirty"] = s.Value
			}
		}
	}
	return h
}
