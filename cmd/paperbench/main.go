// Command paperbench regenerates the paper's entire evaluation section
// in one run: the event graphs (Figs. 5-6), the video player tables
// (Figs. 10-11), the SecComm table (Fig. 12), the X client table
// (Fig. 13), the section 1 overhead-share claim and the section 4.2
// code-size note. Use -quick for a fast pass with reduced iteration
// counts.
package main

import (
	"flag"
	"fmt"
	"os"

	"eventopt/internal/bench"
)

func main() {
	var (
		quick        = flag.Bool("quick", false, "reduced iteration counts")
		overhead     = flag.Bool("overhead", true, "include the overhead-share measurement")
		codesize     = flag.Bool("codesize", true, "include the code-size measurement")
		dot          = flag.Bool("dot", false, "emit DOT for the graphs")
		parallel     = flag.Bool("parallel", false, "include the multi-domain throughput benchmark")
		parallelJSON = flag.String("parallel-json", "", "write the parallel benchmark report to this file (implies -parallel)")
		telem        = flag.Bool("telemetry", false, "include the telemetry overhead gate")
		telemJSON    = flag.String("telemetry-json", "", "write the telemetry overhead report to this file (implies -telemetry)")
		adapt        = flag.Bool("adaptive", false, "include the adaptive optimizer convergence gate")
		adaptJSON    = flag.String("adaptive-json", "", "write the adaptive convergence report to this file (implies -adaptive)")
		batch        = flag.Bool("batch", false, "include the batched-drain and async-chain-merging gate")
		batchJSON    = flag.String("batch-json", "", "write the batch benchmark report to this file (implies -batch)")
		codegen      = flag.Bool("codegen", false, "include the generated-code tier gate")
		codegenJSON  = flag.String("codegen-json", "", "write the codegen tier report to this file (implies -codegen)")
		spans        = flag.Bool("spans", false, "include the span tracing overhead gate")
		spansJSON    = flag.String("spans-json", "", "write the span overhead report to this file (implies -spans)")
		xdomain      = flag.Bool("xdomain", false, "include the cross-domain handoff and K-tuning gate")
		xdomainJSON  = flag.String("xdomain-json", "", "write the cross-domain report to this file (implies -xdomain)")
		compare      = flag.Bool("compare", false, "compare two bench report JSON files (old.json new.json) and exit")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "paperbench: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if err := bench.CompareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: compare: %v\n", err)
			os.Exit(1)
		}
		return
	}

	frames, iters, msgs, xiters, ohFrames, praises, tops, adops, bevents, cgiters, spops, xdevents := 400, 2000, 1000, 1000, 400, 400000, 200000, 20000, 120000, 20000, 200000, 100000
	if *quick {
		frames, iters, msgs, xiters, ohFrames, praises, tops, adops, bevents, cgiters, spops, xdevents = 120, 400, 200, 250, 150, 60000, 50000, 5000, 40000, 5000, 50000, 30000
	}

	step := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	step("fig5", func() error { _, err := bench.RunFig5(os.Stdout, *dot); return err })
	step("fig6", func() error { _, err := bench.RunFig6(os.Stdout, 300, *dot); return err })
	step("fig8", func() error { _, err := bench.RunFig8(os.Stdout, *dot); return err })
	step("fig10", func() error { _, err := bench.RunFig10(os.Stdout, frames); return err })
	step("fig11", func() error { _, err := bench.RunFig11(os.Stdout, iters); return err })
	step("fig12", func() error { _, err := bench.RunFig12(os.Stdout, msgs); return err })
	step("fig13", func() error { _, err := bench.RunFig13(os.Stdout, xiters); return err })
	if *overhead {
		step("overhead", func() error { _, err := bench.RunOverhead(os.Stdout, ohFrames); return err })
	}
	if *codesize {
		step("codesize", func() error { return bench.RunCodeSize(os.Stdout) })
	}
	if *parallel || *parallelJSON != "" {
		step("parallel", func() error {
			rep, err := bench.RunParallel(os.Stdout, praises)
			if err != nil {
				return err
			}
			if *parallelJSON == "" {
				return nil
			}
			f, err := os.Create(*parallelJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			return rep.WriteJSON(f)
		})
	}
	if *telem || *telemJSON != "" {
		step("telemetry", func() error {
			// The telemetry delta is single-digit nanoseconds, so this gate
			// needs a high iteration count to measure it above timer noise;
			// each raise is ~150ns, so even the full count finishes in well
			// under a second.
			rep, gateErr := bench.RunTelemetry(os.Stdout, tops)
			if *telemJSON != "" && rep != nil {
				f, err := os.Create(*telemJSON)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					return err
				}
			}
			return gateErr
		})
	}
	if *adapt || *adaptJSON != "" {
		step("adaptive", func() error {
			rep, gateErr := bench.RunAdaptive(os.Stdout, adops)
			if *adaptJSON != "" && rep != nil {
				f, err := os.Create(*adaptJSON)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					return err
				}
			}
			return gateErr
		})
	}
	if *batch || *batchJSON != "" {
		step("batch", func() error {
			rep, gateErr := bench.RunBatch(os.Stdout, bevents)
			if *batchJSON != "" && rep != nil {
				f, err := os.Create(*batchJSON)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					return err
				}
			}
			return gateErr
		})
	}
	if *spans || *spansJSON != "" {
		step("spans", func() error {
			// Like the telemetry gate, the span layer's increment is a few
			// nanoseconds per raise, so the gate uses the same high
			// iteration count to resolve it above timer noise.
			rep, gateErr := bench.RunSpans(os.Stdout, spops)
			if *spansJSON != "" && rep != nil {
				f, err := os.Create(*spansJSON)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					return err
				}
			}
			return gateErr
		})
	}
	if *xdomain || *xdomainJSON != "" {
		step("xdomain", func() error {
			rep, gateErr := bench.RunXDomain(os.Stdout, xdevents)
			if *xdomainJSON != "" && rep != nil {
				f, err := os.Create(*xdomainJSON)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					return err
				}
			}
			return gateErr
		})
	}
	if *codegen || *codegenJSON != "" {
		step("codegen", func() error {
			rep, gateErr := bench.RunCodegen(os.Stdout, cgiters)
			if *codegenJSON != "" && rep != nil {
				f, err := os.Create(*codegenJSON)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					return err
				}
			}
			return gateErr
		})
	}
}
