package server

import (
	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
)

// dialect is one advice collection: Karousos advice (§4) or the Orochi-JS
// baseline's (§6). The two differ in exactly two policies — which variable
// accesses are logged (logs) and how a request's handlers become its
// control-flow tag (tag); every other advice record is produced the same
// way for each dialect being collected.
type dialect struct {
	mode advice.Mode
	adv  *advice.Advice
	// seg holds the wire encoding of every entry in adv's logs, written when
	// the entry is logged. The sealed blob is laid out from it (DrainAdvice),
	// so the encoding cost — proportional to logged value sizes — is paid
	// once, on the serving path where the paper measures it (§6.1), and a
	// seal only copies bytes.
	seg advice.Segments
	// logged holds, per variable, the ops already in adv's variable log, so a
	// dictating write is logged lazily at most once (Figure 13).
	logged map[core.VarID]map[core.Op]bool
}

func newDialect(mode advice.Mode) *dialect {
	d := &dialect{mode: mode, logged: make(map[core.VarID]map[core.Op]bool)}
	d.reset()
	return d
}

// reset starts the next epoch's advice.
func (d *dialect) reset() {
	d.adv = advice.New(d.mode)
	d.seg = advice.Segments{VarLogs: make(map[core.VarID][]byte), HandlerLogs: make(map[core.RID][]byte)}
}

// logs reports whether the variable access cur, whose variable's most recent
// write is last, goes into the variable log. Init-level ops never do: they
// R-precede every request op. Karousos logs an access only when it is
// R-concurrent with the dictating write (Figure 13); Orochi-JS logs every
// request access.
func (d *dialect) logs(cur, last core.TaggedOp) bool {
	if cur.RID == core.InitRID {
		return false
	}
	return d.mode == advice.ModeOrochiJS || core.RConcurrent(cur, last)
}

// tag digests a finished request's (handler, control-flow digest) pairs.
func (d *dialect) tag(parts []tagPart) string {
	if d.mode == advice.ModeOrochiJS {
		return orochiTag(parts)
	}
	return karousosTag(parts)
}

// logVar appends e to the variable log of id.
func (d *dialect) logVar(id core.VarID, e advice.VarLogEntry) {
	d.adv.VarLogs[id] = append(d.adv.VarLogs[id], e)
	d.seg.VarLogs[id] = advice.AppendVarEntry(d.seg.VarLogs[id], &e)
	d.logged[id][e.Op] = true
}
