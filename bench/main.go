// Command bench is the repository's one benchmark: six whole-epoch
// workloads, each measured end to end with tracing off and, in a
// separate traced pass, layer by layer. See README.md.
//
//	go run ./bench                         every workload, end to end
//	go run ./bench -trace 1                ... and the traced per-layer pass
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                       one run of one workload; the last
//	                                       line of standard output is the
//	                                       result as one JSON object
//	go run ./bench -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload, in this process")
		seed    = fs.Uint64("seed", 1, "workload seed (becomes trainsim.Config.Seed)")
		seconds = fs.Int("seconds", defaultSeconds, "measured window the epoch counts are scaled to")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer pass (with -workload: instead of the end-to-end pass)")
		smoke   = fs.Bool("smoke", false, "tiny dataset, one short round: checks that the benchmark still works")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for results, traces and run scratch")
		dataDir = fs.String("data-dir", "", "directory for backend data files (default: memory files)")
		runs    = fs.Int("runs", 1, "runs per workload, on consecutive seeds (all-workload mode)")
		compare = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive, -trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir, dataDir: *dataDir}
	if *name != "" {
		return runOne(*name, *trace == 1, o, stdout, stderr)
	}
	return runAll(*trace == 1, *runs, o, stdout, stderr)
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(name string, traced bool, o runOpts) (*runResult, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	w = w.scaled(o.seconds, o.smoke)
	switch {
	case traced && w.serve:
		return runServeTraced(w, o)
	case traced:
		return runTraced(w, o)
	case w.serve:
		return runServeEndToEnd(w, o)
	default:
		return runEndToEnd(w, o)
	}
}

func resultName(workload string, traced bool, seed uint64) string {
	pass := "e2e"
	if traced {
		pass = "trace"
	}
	return fmt.Sprintf("%s.%s.seed%d.json", workload, pass, seed)
}

// runOne is the single-workload mode: report, write the result, and end
// standard output with the contract line.
func runOne(name string, traced bool, o runOpts, stdout, stderr io.Writer) int {
	res, err := runWorkload(name, traced, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	res.Traced = traced
	res.print(stdout)
	if err := writeJSON(filepath.Join(o.outDir, resultName(name, traced, o.seed)), res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, res.contractLine())
	if !res.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload, each run in its own child process so that
// peak RSS and allocation counters do not leak between workloads, and
// writes all of them to one result file.
func runAll(traced bool, runs int, o runOpts, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	var all resultFile
	failed := false
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			seed := o.seed + uint64(r)
			for _, tr := range passes {
				args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.Itoa(o.seconds), "-out", o.outDir, "-trace", "0"}
				if tr {
					args[len(args)-1] = "1"
				}
				if o.smoke {
					args = append(args, "-smoke")
				}
				if o.dataDir != "" {
					args = append(args, "-data-dir", o.dataDir)
				}
				// A child that dies early must not leave an older run's
				// result to be read in its place.
				resultPath := filepath.Join(o.outDir, resultName(w.name, tr, seed))
				os.Remove(resultPath)
				cmd := exec.Command(self, args...)
				var out bytes.Buffer
				cmd.Stdout, cmd.Stderr = &out, stderr
				runErr := cmd.Run()
				printAllButLast(stdout, out.Bytes())
				if runErr != nil {
					fmt.Fprintf(stderr, "bench: %s (seed %d, trace %v): %v\n", w.name, seed, tr, runErr)
					failed = true
				}
				b, err := os.ReadFile(resultPath)
				if err != nil {
					failed = true
					continue
				}
				var res runResult
				if err := json.Unmarshal(b, &res); err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					failed = true
					continue
				}
				all.Runs = append(all.Runs, &res)
			}
		}
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, &all); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "result written to %s\n", path)
	if failed {
		return 1
	}
	return 0
}

// printAllButLast forwards a child's report without its contract line.
func printAllButLast(w io.Writer, out []byte) {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		w.Write(out[:i+1])
	}
}
