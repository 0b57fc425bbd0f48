// Command gdb-shell is an interactive shell over any of the nine
// engines: load or generate a dataset, then explore it with
// Gremlin-flavoured commands. Useful for eyeballing how the same data
// behaves across architectures.
//
// Usage:
//
//	gdb-shell [-engine neo-1.9]
//
// Session:
//
//	> gen yeast 0.05
//	loaded 200 vertices, 600 edges
//	> count v
//	200
//	> out 3
//	[17 44 102]
//	> bfs 3 2
//	23 vertices
//	> quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/engines"
)

// defineFlags declares gdb-shell's one flag, -engine, so the doc-sync
// test can enumerate it.
func defineFlags(fs *flag.FlagSet) *string {
	return fs.String("engine", "neo-1.9", "engine to start with")
}

func main() {
	engine := defineFlags(flag.CommandLine)
	flag.Parse()

	e, err := engines.New(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdb-shell:", err)
		os.Exit(1)
	}
	s := newSession(e)
	fmt.Printf("gdb-shell on %s — type 'help'\n", *engine)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		out, quit := s.Eval(sc.Text())
		if out != "" {
			fmt.Println(out)
		}
		if quit {
			break
		}
	}
	e.Close()
}
