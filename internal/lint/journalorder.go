package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzeJournalOrder is rule J001: journal-before-execute and
// lease-before-execute. In the daemon, every enqueue of recoverable
// work (jobs.Engine.Do with a journaled job kind) must be dominated —
// on every control-flow path of the enclosing function — by a
// write-ahead journal begin: a job that starts executing before its
// intent is durable is exactly the job a SIGKILL loses. Likewise every
// simulation (Run.SimulateSpec) must be dominated by the execution
// lease acquire: a simulation run without the lease is exactly the
// double execution the lease exists to rule out.
//
// Domination is checked structurally (sound for Go's structured
// control flow): a begin call counts only when it appears in a
// statement that precedes the enqueue at some nesting level of the
// same function — a begin inside an if-branch does not dominate code
// after the branch. Enqueues whose key argument carries a configured
// non-journaled literal prefix (idempotent, re-derivable work like
// "prepare/" compiles) are exempt.
var analyzeJournalOrder = &Analyzer{
	Rule: RuleJournal,
	Doc:  "job enqueue must be dominated by a journal begin, simulation by a lease acquire",
	Run:  runJournalOrder,
}

func runJournalOrder(p *Pass) {
	cfg, pkg := p.Cfg, p.Pkg
	if !cfg.JournalScope.HasPackage(pkg.Path) {
		return
	}
	for i, f := range pkg.Files {
		if !cfg.JournalScope.HasFile(pkg.Path, pkg.GoFiles[i]) {
			continue
		}
		// Walk each function (and each function literal) independently:
		// dominance is a per-function property.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkJournalBody(p, body)
			}
			return true
		})
	}
}

// checkJournalBody flags every enqueue call in body (not nested in a
// further function literal) that is not structurally dominated by a
// begin call, and every execute call not dominated by a lease acquire.
func checkJournalBody(p *Pass, body *ast.BlockStmt) {
	cfg, info := p.Cfg, p.Pkg.Info
	var enqueues, executes []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false // separate function scope, walked separately
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch id := calleeID(info, call); {
		case inList(id, cfg.EnqueueFuncs):
			enqueues = append(enqueues, call)
		case inList(id, cfg.ExecuteFuncs):
			executes = append(executes, call)
		}
		return true
	})
	for _, call := range enqueues {
		if exemptKey(call, cfg.NonJournaledKeyPrefixes) {
			continue
		}
		if !dominatedBy(p, body, call, cfg.BeginFuncs) {
			p.Report(call.Pos(), "job enqueue is not dominated by a journal begin: a crash between here and the first journal append loses this job (no path to it may skip the write-ahead intent)")
		}
	}
	for _, call := range executes {
		if !dominatedBy(p, body, call, cfg.LeaseFuncs) {
			p.Report(call.Pos(), "simulation is not dominated by an execution-lease acquire: a path that skips the lease can run this key a second time elsewhere in the cluster")
		}
	}
}

// exemptKey reports whether the enqueue's key argument (by convention
// the second argument: Do(ctx, key, fn)) starts with a non-journaled
// literal prefix. The key may be a literal or a literal+expr
// concatenation; the leftmost literal decides.
func exemptKey(call *ast.CallExpr, prefixes []string) bool {
	if len(call.Args) < 2 || len(prefixes) == 0 {
		return false
	}
	lit := leftmostStringLit(call.Args[1])
	if lit == "" {
		return false
	}
	for _, pre := range prefixes {
		if strings.HasPrefix(lit, pre) {
			return true
		}
	}
	return false
}

// leftmostStringLit unwraps "a" + x + ... to the value of "a", or "".
func leftmostStringLit(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			if x.Op != token.ADD {
				return ""
			}
			e = x.X
		case *ast.BasicLit:
			if x.Kind != token.STRING {
				return ""
			}
			return strings.Trim(x.Value, "`\"")
		default:
			return ""
		}
	}
}

// dominatedBy reports whether a call to one of ids (a begin, a lease
// acquire) appears in a statement preceding the one containing `call`
// at some nesting level of body — structural dominance for Go's
// block-scoped control flow. The dominator must sit in a plain
// statement (expression or assignment) at the spine: one inside an
// if/for/select nested in a preceding statement does not dominate.
func dominatedBy(p *Pass, body *ast.BlockStmt, call *ast.CallExpr, ids []string) bool {
	spine, ok := pathToStmt(body, call)
	if !ok {
		return false
	}
	info := p.Pkg.Info
	for _, level := range spine {
		for _, s := range level.before {
			if plainStmtCalls(info, s, ids) {
				return true
			}
		}
	}
	return false
}

// spineLevel is one nesting level on the path from the function body
// to the statement containing the target: the statements that
// sequentially precede the path at this level.
type spineLevel struct {
	before []ast.Stmt
}

// pathToStmt returns, for each block level from body down to the
// statement containing target, the statements preceding the path.
func pathToStmt(body *ast.BlockStmt, target ast.Node) ([]spineLevel, bool) {
	var walk func(b *ast.BlockStmt) ([]spineLevel, bool)
	walk = func(b *ast.BlockStmt) ([]spineLevel, bool) {
		for i, s := range b.List {
			if !containsNode(s, target) {
				continue
			}
			level := spineLevel{before: b.List[:i]}
			// Descend into nested blocks of s looking for a deeper level.
			var deeper []spineLevel
			found := false
			ast.Inspect(s, func(n ast.Node) bool {
				if found {
					return false
				}
				if nb, ok := n.(*ast.BlockStmt); ok && containsNode(nb, target) {
					deeper, found = walk(nb)
					return false
				}
				return true
			})
			if found {
				return append([]spineLevel{level}, deeper...), true
			}
			return []spineLevel{level}, true
		}
		return nil, false
	}
	return walk(body)
}

func containsNode(outer ast.Node, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// plainStmtCalls reports whether s is a plain expression/assignment
// statement whose expression tree (not descending into function
// literals — those run later, if at all) calls one of the listed IDs.
func plainStmtCalls(info *types.Info, s ast.Stmt, ids []string) bool {
	switch s.(type) {
	case *ast.ExprStmt, *ast.AssignStmt:
	default:
		return false
	}
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && inList(calleeID(info, call), ids) {
			found = true
			return false
		}
		return true
	})
	return found
}
