package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotJSONFuncs names the persist/WAL hot-path functions per package:
// the code that runs on every activity completion (checkpoint encode and
// commit) or every replicated frame, and the recovery path that reads
// those records back. These paths speak only the binary codec —
// reflection-based encoding/json must never creep back in, or the
// 0-allocs/record budget and the ≥2× marshal speedup silently rot, and
// recovery would again read a second record format. Log shipping's
// per-frame path is pinned too: the shipper sends the WAL's own binary
// frames in a binary envelope. Cold paths (the offline migrate, snapshot
// files, CLI rendering) may use encoding/json freely: the format
// boundary, not the import, is the invariant.
var hotJSONFuncs = map[string]map[string]bool{
	"bioopera/internal/core": {
		"persist":       true, // per-activity checkpoint assembly
		"archive":       true, // terminal-instance snapshot + history move
		"snapshotScope": true, // dirty-scope DTO capture
		"encodeCkpt":    true, // record encode (the codec call site)
		"flushCkpt":     true, // batch assembly + store commit
		"remarkCkpt":    true, // failed-batch re-marking
		// Recovery and lazy hydration read binary records only.
		"RecoverOwned":          true,
		"buildRecovered":        true,
		"decodeInstanceRecords": true,
		"buildScopes":           true,
		"hydrateLocked":         true,
		"DecodeInstanceMeta":    true,
	},
	"bioopera/internal/store": {
		"encodeWALRecord": true, // WAL frame encode
		"append":          true, // per-op WAL append
		"commit":          true, // group-commit enqueue
		"flushGroup":      true, // group-commit leader flush
		"Put":             true,
		"Batch":           true,
		"AppendEvent":     true,
		"applyShipped":    true, // standby replay of shipped frames
		"decodeWALRecord": true, // WAL replay decode: binary frames only
		"apply":           true, // replayed-record apply
	},
	"bioopera/internal/wal": {
		"Append":      true,
		"AppendBatch": true,
		"serve":       true, // shipper session: tail read + frames send
		"next":        true, // tail cursor read
		"writeMsg":    true, // ship envelope encode
		"readMsg":     true, // ship envelope decode
		"Run":         true, // follower receive loop
		"handle":      true, // follower frame verify + batch split
	},
}

// hotFuncsFor resolves the banned-function set for a package. Golden
// fixtures stand in for internal/core so the harness can exercise the
// analyzer without linting the real engine.
func hotFuncsFor(path string) map[string]bool {
	if testdataPkg(path) {
		if strings.Contains(path, "lint/testdata/hotjson") {
			return hotJSONFuncs["bioopera/internal/core"]
		}
		return nil
	}
	return hotJSONFuncs[path]
}

// runHotJSON flags encoding/json use inside persist/WAL hot-path
// functions. The check is syntactic per function body: any selector
// resolving to the encoding/json package (json.Marshal, json.NewEncoder,
// an aliased import, ...) is a violation. Deliberate exceptions — none
// exist today; the offline migrate's JSON reads live in functions outside
// these sets — carry //bioopera:allow hotjson with a reason.
func runHotJSON(p *Pass) {
	funcs := hotFuncsFor(p.Pkg.Path())
	if len(funcs) == 0 {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcs[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := p.Info.Uses[id].(*types.PkgName)
				if !ok || pn.Imported().Path() != "encoding/json" {
					return true
				}
				p.Reportf(sel.Pos(), "json.%s in persist hot-path function %s: hot-path records use the binary codec (internal/codec), not encoding/json", sel.Sel.Name, fd.Name.Name)
				return true
			})
		}
	}
}
