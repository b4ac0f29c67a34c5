// Command evgen is the ahead-of-time super-handler compiler: it builds
// a workload's golden profile plan (internal/codegen/genplan), lowers
// every fused segment body to real Go source (internal/codegen), and
// writes the file that internal/codegen/gen checks in. The generated
// supers install at runtime through core.InstallGenerated.
//
//	evgen -workload seccomm -o internal/codegen/gen/seccomm_gen.go
//	evgen -workload seccomm -o ... -verify   # CI drift check, no write
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"eventopt/internal/codegen"
	"eventopt/internal/codegen/genplan"
	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hirrt"
)

func main() {
	var (
		workload = flag.String("workload", "seccomm", "plan recipe: "+strings.Join(genplan.Workloads, "|"))
		out      = flag.String("o", "", "output file (default stdout)")
		pkg      = flag.String("pkg", "gen", "package name for the generated file")
		verify   = flag.Bool("verify", false, "compare against -o instead of writing; exit 1 on drift")
	)
	flag.Parse()

	if err := run(*workload, *out, *pkg, *verify); err != nil {
		fmt.Fprintf(os.Stderr, "evgen: %v\n", err)
		os.Exit(1)
	}
}

func run(workload, out, pkg string, verify bool) error {
	var (
		sys  *event.System
		mod  *hirrt.Module
		plan *core.Plan
		err  error
	)
	switch workload {
	case "seccomm":
		ep, err2 := genplan.SecCommEndpoint()
		if err2 != nil {
			return err2
		}
		plan, err = genplan.SecCommPlan(ep)
		sys, mod = ep.Sys, ep.Mod
	case "videoplayer":
		p, err2 := genplan.VideoPlayer()
		if err2 != nil {
			return err2
		}
		plan, err = genplan.VideoPlan(p)
		sys, mod = p.Sender.Sys, p.Sender.Mod
	default:
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(genplan.Workloads, ", "))
	}
	if err != nil {
		return err
	}

	src, err := codegen.Generate(codegen.Config{
		Package:  pkg,
		Prefix:   prefixFor(workload),
		Workload: workload,
	}, sys, mod, plan)
	if err != nil {
		return err
	}

	if verify {
		if out == "" {
			return fmt.Errorf("-verify requires -o")
		}
		have, err := os.ReadFile(out)
		if err != nil {
			return fmt.Errorf("read %s: %w", out, err)
		}
		if !bytes.Equal(have, src) {
			return fmt.Errorf("%s is out of date; regenerate with: go run ./cmd/evgen -workload %s -o %s", out, workload, out)
		}
		fmt.Printf("evgen: %s up to date (%d bytes)\n", out, len(src))
		return nil
	}
	if out == "" {
		_, err = os.Stdout.Write(src)
		return err
	}
	return os.WriteFile(out, src, 0o644)
}

// prefixFor maps a workload name to the exported identifier prefix of
// its generated file ("seccomm" -> "Seccomm").
func prefixFor(workload string) string {
	var b strings.Builder
	up := true
	for _, r := range workload {
		if r == '-' || r == '_' {
			up = true
			continue
		}
		if up {
			b.WriteString(strings.ToUpper(string(r)))
			up = false
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
