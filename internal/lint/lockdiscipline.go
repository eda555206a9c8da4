package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline enforces the repo's mutex convention: in a struct, a
// sync.Mutex/RWMutex field guards every field declared after it. A method
// that touches a guarded field must either acquire the mutex somewhere in
// its body or declare, via the ...Locked naming convention, that its caller
// already holds it. Fields that are immutable after construction belong
// above the mutex, where the analyzer (and the reader) knows they need no
// lock.
//
// The check is deliberately coarse — it does not track lock state through
// control flow — so it catches the dangerous shape (a method with no idea a
// lock exists) without false-flagging unlock/relock patterns.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "methods touching mutex-guarded fields must lock or be ...Locked",
	Run:  runLockDiscipline,
}

// guardSet describes a struct's mutex and the fields it guards.
type guardSet struct {
	mutexField string // field name; "Mutex"/"RWMutex" when embedded
	embedded   bool
	guarded    map[string]bool
}

func runLockDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // caller-holds-lock convention
			}
			recv := fd.Recv.List[0]
			if len(recv.Names) == 0 || recv.Names[0].Name == "_" {
				continue
			}
			recvObj, ok := pass.Info.Defs[recv.Names[0]].(*types.Var)
			if !ok {
				continue
			}
			gs := structGuards(recvObj.Type())
			if gs == nil {
				continue
			}
			checkMethod(pass, fd, recvObj, gs)
		}
	}
}

// structGuards returns the guard set for a (possibly pointer) named struct
// type with a mutex field, or nil.
func structGuards(t types.Type) *guardSet {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	mutexIdx := -1
	var gs guardSet
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if mutexIdx < 0 {
			if isMutexType(f.Type()) {
				mutexIdx = i
				gs.mutexField = f.Name()
				gs.embedded = f.Embedded()
				gs.guarded = make(map[string]bool)
			}
			continue
		}
		gs.guarded[f.Name()] = true
	}
	if mutexIdx < 0 || len(gs.guarded) == 0 {
		return nil
	}
	return &gs
}

// checkMethod reports the first guarded-field access in a method that never
// acquires the receiver's mutex.
func checkMethod(pass *Pass, fd *ast.FuncDecl, recvObj *types.Var, gs *guardSet) {
	locks := false
	var firstAccess *ast.SelectorExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isLockAcquire(pass.Info, n, recvObj, gs) {
				locks = true
			}
		case *ast.SelectorExpr:
			base, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || pass.Info.Uses[base] != recvObj {
				return true
			}
			if gs.guarded[n.Sel.Name] && firstAccess == nil {
				firstAccess = n
			}
		}
		return true
	})
	if firstAccess != nil && !locks {
		pass.ReportWithFix(firstAccess.Pos(), lockedRenameFix(pass, fd, recvObj, gs),
			"%s accesses %s.%s (guarded by %s) without holding the lock; acquire %s or use the ...Locked naming convention",
			fd.Name.Name, recvObj.Name(), firstAccess.Sel.Name, gs.mutexField, gs.mutexField)
	}
}

// lockedRenameFix builds the ...Locked rename — declaration plus every
// same-package use — documenting that the caller must hold the mutex. Only
// unexported methods qualify (renaming an exported method breaks the API),
// and only when the new name is free on the receiver type.
func lockedRenameFix(pass *Pass, fd *ast.FuncDecl, recvObj *types.Var, gs *guardSet) *SuggestedFix {
	name := fd.Name.Name
	if fd.Name.IsExported() || strings.HasSuffix(name, "Locked") {
		return nil
	}
	newName := name + "Locked"
	if obj, _, _ := types.LookupFieldOrMethod(recvObj.Type(), true, pass.Pkg, newName); obj != nil {
		return nil // name already taken on the receiver type
	}
	obj := pass.Info.Defs[fd.Name]
	if obj == nil {
		return nil
	}
	edits := []TextEdit{pass.Edit(fd.Name.Pos(), fd.Name.End(), newName)}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				edits = append(edits, pass.Edit(id.Pos(), id.End(), newName))
			}
			return true
		})
	}
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].Filename != edits[j].Filename {
			return edits[i].Filename < edits[j].Filename
		}
		return edits[i].Start < edits[j].Start
	})
	return &SuggestedFix{
		Message: fmt.Sprintf("rename %s to %s (caller must hold %s)", name, newName, gs.mutexField),
		Edits:   edits,
	}
}

// isLockAcquire matches recv.mu.Lock(), recv.mu.RLock(), and — for an
// embedded mutex — recv.Lock()/recv.RLock().
func isLockAcquire(info *types.Info, call *ast.CallExpr, recvObj *types.Var, gs *guardSet) bool {
	sel, op, _ := lockOp(info, call)
	if op <= 0 {
		return false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		// recv.Lock(): only an embedded mutex promotes Lock onto the receiver.
		return gs.embedded && info.Uses[x] == recvObj
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(x.X).(*ast.Ident)
		return ok && info.Uses[base] == recvObj && x.Sel.Name == gs.mutexField
	}
	return false
}
