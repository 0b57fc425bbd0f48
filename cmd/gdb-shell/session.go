package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/graphson"
	"repro/internal/gremlin"
)

// session interprets shell commands against one engine instance.
type session struct {
	e core.Engine
}

func newSession(e core.Engine) *session { return &session{e: e} }

const helpText = `commands:
  engine <name>                switch engine (discards data)
  gen <dataset> <scale>        generate a benchmark dataset
  load <file.json>             load a GraphSON file
  addv [k=v ...]               add a vertex
  adde <src> <dst> <label> [k=v ...]   add an edge
  v <id> | e <id>              show an object's label/properties
  rmv <id> | rme <id>          remove a vertex/edge
  set v|e <id> <name> <value>  set a property
  out|in|both <id> [label]     neighbours of a vertex
  count v|e                    object counts
  labels                       distinct edge labels
  search <name> <value>        vertices by property
  index <name>                 build an attribute index
  explain <steps>              show the query plan with cardinality
                               estimates; steps are space-separated
                               (V, E, V:<id>, E:<id>, has:k=v,
                               hasLabel:l, out[:l], in, both, outE,
                               inE, bothE, outV, inV, degree:dir,k,
                               dedup, limit:n, sample:n; n >= 0).
  bfs <id> <depth> [label]     breadth-first reach
  sp <v1> <v2> [label]         shortest path
  space                        space occupancy report
  meta                         engine characteristics
  help | quit`

// Eval interprets one command line. It returns the printable result and
// whether the shell should exit.
func (s *session) Eval(line string) (string, bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", false
	}
	cmd, args := fields[0], fields[1:]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	switch cmd {
	case "quit", "exit":
		return "bye", true
	case "help":
		return helpText, false
	case "engine":
		if len(args) != 1 {
			return "usage: engine <name>", false
		}
		ne, err := engines.New(args[0])
		if err != nil {
			return err.Error(), false
		}
		s.e.Close()
		s.e = ne
		return "switched to " + args[0], false
	case "gen":
		if len(args) != 2 {
			return "usage: gen <dataset> <scale>", false
		}
		spec := datasets.ByName(args[0])
		if spec == nil {
			return fmt.Sprintf("unknown dataset %q (known: %v)", args[0], datasets.Names()), false
		}
		scale, err := strconv.ParseFloat(args[1], 64)
		if err != nil || scale <= 0 {
			return "scale must be a positive number", false
		}
		g := spec.Generate(scale)
		if _, err := s.e.BulkLoad(g); err != nil {
			return err.Error(), false
		}
		return fmt.Sprintf("loaded %d vertices, %d edges", g.NumVertices(), g.NumEdges()), false
	case "load":
		if len(args) != 1 {
			return "usage: load <file.json>", false
		}
		f, err := os.Open(args[0])
		if err != nil {
			return err.Error(), false
		}
		defer f.Close()
		g, err := graphson.Read(f)
		if err != nil {
			return err.Error(), false
		}
		if _, err := s.e.BulkLoad(g); err != nil {
			return err.Error(), false
		}
		return fmt.Sprintf("loaded %d vertices, %d edges", g.NumVertices(), g.NumEdges()), false
	case "addv":
		props, err := parseProps(args)
		if err != nil {
			return err.Error(), false
		}
		id, err := s.e.AddVertex(props)
		if err != nil {
			return err.Error(), false
		}
		return fmt.Sprintf("vertex %d", id), false
	case "adde":
		if len(args) < 3 {
			return "usage: adde <src> <dst> <label> [k=v ...]", false
		}
		src, err1 := parseID(args[0])
		dst, err2 := parseID(args[1])
		if err1 != nil || err2 != nil {
			return "src and dst must be numeric ids", false
		}
		props, err := parseProps(args[3:])
		if err != nil {
			return err.Error(), false
		}
		id, err := s.e.AddEdge(src, dst, args[2], props)
		if err != nil {
			return err.Error(), false
		}
		return fmt.Sprintf("edge %d", id), false
	case "v", "e":
		if len(args) != 1 {
			return "usage: " + cmd + " <id>", false
		}
		id, err := parseID(args[0])
		if err != nil {
			return err.Error(), false
		}
		if cmd == "v" {
			p, err := s.e.VertexProps(id)
			if err != nil {
				return err.Error(), false
			}
			return formatProps(p), false
		}
		label, err := s.e.EdgeLabel(id)
		if err != nil {
			return err.Error(), false
		}
		src, dst, _ := s.e.EdgeEnds(id)
		p, _ := s.e.EdgeProps(id)
		return fmt.Sprintf("%d -%s-> %d %s", src, label, dst, formatProps(p)), false
	case "rmv", "rme":
		if len(args) != 1 {
			return "usage: " + cmd + " <id>", false
		}
		id, err := parseID(args[0])
		if err != nil {
			return err.Error(), false
		}
		if cmd == "rmv" {
			err = s.e.RemoveVertex(id)
		} else {
			err = s.e.RemoveEdge(id)
		}
		if err != nil {
			return err.Error(), false
		}
		return "removed", false
	case "set":
		if len(args) != 4 || (args[0] != "v" && args[0] != "e") {
			return "usage: set v|e <id> <name> <value>", false
		}
		id, err := parseID(args[1])
		if err != nil {
			return err.Error(), false
		}
		v := parseValue(args[3])
		if args[0] == "v" {
			err = s.e.SetVertexProp(id, args[2], v)
		} else {
			err = s.e.SetEdgeProp(id, args[2], v)
		}
		if err != nil {
			return err.Error(), false
		}
		return "ok", false
	case "out", "in", "both":
		if len(args) < 1 {
			return "usage: " + cmd + " <id> [label]", false
		}
		id, err := parseID(args[0])
		if err != nil {
			return err.Error(), false
		}
		d := map[string]core.Direction{"out": core.DirOut, "in": core.DirIn, "both": core.DirBoth}[cmd]
		ids := core.Collect(s.e.Neighbors(id, d, args[1:]...))
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return fmt.Sprint(ids), false
	case "count":
		if len(args) != 1 || (args[0] != "v" && args[0] != "e") {
			return "usage: count v|e", false
		}
		var n int64
		var err error
		if args[0] == "v" {
			n, err = s.e.CountVertices()
		} else {
			n, err = s.e.CountEdges()
		}
		if err != nil {
			return err.Error(), false
		}
		return strconv.FormatInt(n, 10), false
	case "labels":
		ls, err := gremlin.New(s.e).E().DistinctLabels(ctx)
		if err != nil {
			return err.Error(), false
		}
		sort.Strings(ls)
		return fmt.Sprint(ls), false
	case "search":
		if len(args) != 2 {
			return "usage: search <name> <value>", false
		}
		ids, err := gremlin.New(s.e).VHas(args[0], parseValue(args[1])).IDs(ctx)
		if err != nil {
			return err.Error(), false
		}
		return fmt.Sprintf("%d vertices %v", len(ids), truncIDs(ids, 20)), false
	case "explain":
		t, err := parseTraversal(gremlin.New(s.e), args)
		if err != nil {
			return err.Error(), false
		}
		return strings.TrimRight(t.Explain(ctx).String(), "\n"), false
	case "index":
		if len(args) != 1 {
			return "usage: index <name>", false
		}
		if err := s.e.BuildVertexPropIndex(args[0]); err != nil {
			return err.Error(), false
		}
		return "index built", false
	case "bfs":
		if len(args) < 2 {
			return "usage: bfs <id> <depth> [label]", false
		}
		id, err1 := parseID(args[0])
		depth, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return "bfs needs numeric id and depth", false
		}
		vs, err := gremlin.BFS(ctx, s.e, id, depth, args[2:]...)
		if err != nil {
			return err.Error(), false
		}
		return fmt.Sprintf("%d vertices", len(vs)), false
	case "sp":
		if len(args) < 2 {
			return "usage: sp <v1> <v2> [label]", false
		}
		a, err1 := parseID(args[0])
		b, err2 := parseID(args[1])
		if err1 != nil || err2 != nil {
			return "sp needs numeric ids", false
		}
		path, err := gremlin.ShortestPath(ctx, s.e, a, b, args[2:]...)
		if err != nil {
			return err.Error(), false
		}
		if path == nil {
			return "unreachable", false
		}
		return fmt.Sprint(path), false
	case "space":
		r := s.e.SpaceUsage()
		keys := make([]string, 0, len(r.Breakdown))
		for k := range r.Breakdown {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		fmt.Fprintf(&b, "total %d bytes", r.Total)
		for _, k := range keys {
			fmt.Fprintf(&b, "\n  %-24s %d", k, r.Breakdown[k])
		}
		return b.String(), false
	case "meta":
		m := s.e.Meta()
		return fmt.Sprintf("%s (%s, %s): storage=%s traversal=%s gremlin=%s",
			m.Name, m.Kind, m.Substrate, m.Storage, m.EdgeTraversal, m.Gremlin), false
	default:
		return fmt.Sprintf("unknown command %q — try 'help'", cmd), false
	}
}

// parseTraversal builds a traversal from space-separated step tokens of
// the form op or op:args (see the explain entry in helpText). The first
// token must be a source (V, E, V:<id>, E:<id>).
func parseTraversal(g gremlin.G, args []string) (*gremlin.Traversal, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("usage: explain V|E|V:<id>|E:<id> [step ...]")
	}
	var t *gremlin.Traversal
	for i, tok := range args {
		op, arg, _ := strings.Cut(tok, ":")
		if i == 0 {
			var err error
			if t, err = parseSource(g, op, arg); err != nil {
				return nil, err
			}
			continue
		}
		switch op {
		case "has":
			k, v, ok := strings.Cut(arg, "=")
			if !ok || k == "" {
				return nil, fmt.Errorf("step %q: want has:name=value", tok)
			}
			t = t.Has(k, parseValue(v))
		case "hasLabel":
			if arg == "" {
				return nil, fmt.Errorf("step %q: want hasLabel:label", tok)
			}
			t = t.HasLabel(arg)
		case "out":
			t = t.Out(stepLabels(arg)...)
		case "in":
			t = t.In(stepLabels(arg)...)
		case "both":
			t = t.Both(stepLabels(arg)...)
		case "outE":
			t = t.OutE(stepLabels(arg)...)
		case "inE":
			t = t.InE(stepLabels(arg)...)
		case "bothE":
			t = t.BothE(stepLabels(arg)...)
		case "outV":
			t = t.OutV()
		case "inV":
			t = t.InV()
		case "degree":
			dir, ks, ok := strings.Cut(arg, ",")
			d, dok := map[string]core.Direction{"out": core.DirOut, "in": core.DirIn, "both": core.DirBoth}[dir]
			k, err := strconv.ParseInt(ks, 10, 64)
			if !ok || !dok || err != nil {
				return nil, fmt.Errorf("step %q: want degree:out|in|both,k", tok)
			}
			t = t.DegreeAtLeast(d, k)
		case "dedup":
			t = t.Dedup()
		case "limit":
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("step %q: want limit:n, n >= 0", tok)
			}
			t = t.Limit(n)
		case "sample":
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("step %q: want sample:n, n >= 0", tok)
			}
			t = t.Sample(n, 1)
		default:
			return nil, fmt.Errorf("unknown step %q", tok)
		}
	}
	return t, nil
}

func parseSource(g gremlin.G, op, arg string) (*gremlin.Traversal, error) {
	switch {
	case op == "V" && arg == "":
		return g.V(), nil
	case op == "E" && arg == "":
		return g.E(), nil
	case op == "V":
		id, err := parseID(arg)
		if err != nil {
			return nil, err
		}
		return g.VID(id), nil
	case op == "E":
		id, err := parseID(arg)
		if err != nil {
			return nil, err
		}
		return g.EID(id), nil
	}
	return nil, fmt.Errorf("traversal must start with V, E, V:<id> or E:<id>")
}

func stepLabels(arg string) []string {
	if arg == "" {
		return nil
	}
	return strings.Split(arg, ",")
}

func parseID(s string) (core.ID, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return core.NoID, fmt.Errorf("%q is not an id", s)
	}
	return core.ID(n), nil
}

// parseValue maps a token to a typed value: int, float, bool, string.
func parseValue(s string) core.Value {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return core.I(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return core.F(f)
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return core.B(b)
	}
	return core.S(s)
}

func parseProps(args []string) (core.Props, error) {
	if len(args) == 0 {
		return nil, nil
	}
	p := core.Props{}
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("property %q must be name=value", a)
		}
		p[k] = parseValue(v)
	}
	return p, nil
}

func formatProps(p core.Props) string {
	if len(p) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, p[k])
	}
	b.WriteString("}")
	return b.String()
}

func truncIDs(ids []core.ID, n int) []core.ID {
	if len(ids) <= n {
		return ids
	}
	return ids[:n]
}
