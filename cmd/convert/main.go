// Command convert transcodes a dataset between the JSONL interchange
// format (one visit per line, greppable, the released raw-data artifact)
// and the compact columnar format (per-site blocks with interned strings
// and delta-coded columns, the fast analysis input). The conversion is
// lossless in both directions: jsonl → col → jsonl reproduces the
// original file byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"webmeasure/internal/dataset"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable body of the command: parse args, read the input in
// its detected format, write the output in the requested one. It returns
// the process exit code.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in  = fs.String("i", "", "input dataset (jsonl or columnar, auto-detected)")
		out = fs.String("o", "", "output path")
		to  = fs.String("to", "auto", "output format: jsonl, col, or auto (the opposite of the input's)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" || *out == "" {
		fmt.Fprintln(stderr, "convert: -i and -o are required")
		return 2
	}
	switch *to {
	case "auto", dataset.FormatJSONL, dataset.FormatCol:
	default:
		fmt.Fprintf(stderr, "convert: unknown -to %q (want jsonl, col, or auto)\n", *to)
		return 2
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintf(stderr, "convert: %v\n", err)
		return 1
	}
	defer f.Close()
	inFormat, rd, err := dataset.DetectFormat(f)
	if err != nil {
		fmt.Fprintf(stderr, "convert: %v\n", err)
		return 1
	}
	read, outFormat := dataset.ReadJSONL, *to
	if inFormat == dataset.FormatCol {
		read = dataset.ReadCol
	}
	if outFormat == "auto" {
		outFormat = dataset.FormatCol
		if inFormat == dataset.FormatCol {
			outFormat = dataset.FormatJSONL
		}
	}
	ds, err := read(rd)
	if err != nil {
		fmt.Fprintf(stderr, "convert: read %s: %v\n", *in, err)
		return 1
	}

	of, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(stderr, "convert: %v\n", err)
		return 1
	}
	write := ds.WriteJSONL
	if outFormat == dataset.FormatCol {
		write = ds.WriteCol
	}
	if err := write(of); err != nil {
		of.Close()
		fmt.Fprintf(stderr, "convert: write %s: %v\n", *out, err)
		return 1
	}
	if err := of.Close(); err != nil {
		fmt.Fprintf(stderr, "convert: write %s: %v\n", *out, err)
		return 1
	}
	fmt.Fprintf(stderr, "convert: %s (%s) -> %s (%s), %d visits\n", *in, inFormat, *out, outFormat, ds.Len())
	return 0
}
