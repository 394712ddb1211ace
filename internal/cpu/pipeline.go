package cpu

import (
	"sort"

	"ptbsim/internal/isa"
	"ptbsim/internal/power"
)

// This file implements the pipeline stages. step() runs them back to front
// so that resources freed by older instructions are available to younger
// ones on the same cycle.

// commit retires up to CommitWidth completed instructions from the ROB head.
func (c *Core) commit() int {
	n := 0
	for n < c.cfg.CommitWidth && c.count > 0 {
		e := &c.rob[c.head]
		if e.state != stDone {
			break
		}
		inst := &e.inst

		if inst.Op == isa.OpStore {
			if c.storeBuf >= c.cfg.StoreBufSize {
				break // store buffer full: retry next cycle
			}
			c.storeBuf++
			c.mem.Write(c.id, inst.Addr, c.storeDrain)
		}
		if inst.Op.IsMem() {
			c.lsqCount--
		}

		// Power-token bookkeeping (§III.B): base tokens plus ROB residency.
		tokens := c.tm.BaseTokens(inst.Op, inst.LongLat) + int(c.tick-e.dispatchTick)
		c.ptht.Update(inst.PC, tokens)

		c.meter.Add(c.id, power.EvROBRead, 1)
		if inst.Op == isa.OpBranch {
			c.bp.update(inst.PC, inst.Taken, e.predicted)
		}
		if inst.Serialize {
			c.src.Resolve(e.result)
			c.fetchStalled = false
		}

		e.waiters = e.waiters[:0]
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.headSeq++
		c.count--
		c.stats.Committed++
		n++
	}
	return n
}

// completeExecution finishes FU operations whose latency elapsed.
func (c *Core) completeExecution() {
	if len(c.inflight) == 0 {
		return
	}
	kept := c.inflight[:0]
	for _, seq := range c.inflight {
		e := c.entry(seq)
		if e.doneTick > c.tick {
			kept = append(kept, seq)
			continue
		}
		if e.fuClass >= 0 {
			c.fuFree[e.fuClass]++
			e.fuClass = -1
		}
		c.finish(e)
	}
	c.inflight = kept
}

// finish marks an entry completed and wakes its dependents.
func (c *Core) finish(e *robEntry) {
	e.state = stDone
	c.meter.Add(c.id, power.EvRegWrite, 1)

	if e.inst.Op == isa.OpBranch {
		if e.predicted != e.inst.Taken {
			// Misprediction resolved: stop phantom fetch; the front end
			// redirects and refills naturally through the fetch pipe.
			c.stats.Mispredicts++
			c.wrongPath = false
			c.wrongPathBuf = 0
		}
	}

	for _, w := range e.waiters {
		if w < c.headSeq {
			continue
		}
		d := c.entry(w)
		d.pendingDeps--
		if d.pendingDeps == 0 && d.state == stWaiting {
			d.state = stReady
			c.pushReady(w)
		}
	}
	e.waiters = e.waiters[:0]
}

func (c *Core) pushReady(seq int64) {
	// Keep readyQ sorted ascending; wakeups arrive roughly in order so the
	// insertion point is near the end.
	i := sort.Search(len(c.readyQ), func(i int) bool { return c.readyQ[i] >= seq })
	c.readyQ = append(c.readyQ, 0)
	copy(c.readyQ[i+1:], c.readyQ[i:])
	c.readyQ[i] = seq
}

// issue selects up to IssueWidth ready instructions, oldest first.
func (c *Core) issue() int {
	width := c.effWidth(c.knobs.IssueWidth, c.cfg.IssueWidth)
	issued := 0
	kept := c.readyQ[:0]
	for qi, seq := range c.readyQ {
		if issued >= width {
			kept = append(kept, c.readyQ[qi:]...)
			break
		}
		e := c.entry(seq)
		if !c.tryIssue(e) {
			kept = append(kept, seq)
			continue
		}
		issued++
	}
	c.readyQ = kept
	return issued
}

// tryIssue starts execution of a ready entry; false means a structural
// hazard (or an atomic not yet at the head) kept it queued.
func (c *Core) tryIssue(e *robEntry) bool {
	inst := &e.inst
	switch inst.Op {
	case isa.OpLoad:
		c.issueCommon(fuIntAlu) // AGU energy, no FU slot held
		e.state = stExecuting
		c.mem.Read(c.id, inst.Addr, c.memCallback(e.seq, false))
		return true
	case isa.OpStore:
		// Address generation only; data is written at commit.
		c.issueCommon(fuIntAlu)
		e.state = stExecuting
		e.doneTick = c.tick + 1
		e.fuClass = -1
		c.inflight = append(c.inflight, e.seq)
		return true
	case isa.OpAtomicRMW:
		// Atomics execute at the ROB head only (they are not speculated
		// past), acquiring exclusive ownership of their line.
		if e.seq != c.headSeq {
			return false
		}
		c.issueCommon(fuIntAlu)
		e.state = stExecuting
		c.stats.RMWCount++
		c.mem.Write(c.id, inst.Addr, c.memCallback(e.seq, true))
		return true
	default:
		cls := fuClassOf(inst.Op)
		if cls >= 0 {
			if c.fuFree[cls] == 0 {
				return false
			}
			c.fuFree[cls]--
		}
		c.issueCommon(cls)
		e.state = stExecuting
		e.fuClass = cls
		lat := int64(1)
		if cls >= 0 {
			lat = c.fuLat[cls]
			if inst.LongLat {
				lat = int64(c.cfg.LatLong)
			}
		}
		e.doneTick = c.tick + lat
		c.inflight = append(c.inflight, e.seq)
		return true
	}
}

// issueCommon charges the issue-stage energy.
func (c *Core) issueCommon(cls int) {
	c.meter.Add(c.id, power.EvIQWakeup, 1)
	c.meter.Add(c.id, power.EvRegRead, 2)
	switch cls {
	case fuIntAlu:
		c.meter.Add(c.id, power.EvFUIntAlu, 1)
	case fuIntMul:
		c.meter.Add(c.id, power.EvFUIntMul, 1)
	case fuFPAlu:
		c.meter.Add(c.id, power.EvFUFPAlu, 1)
	case fuFPMul:
		c.meter.Add(c.id, power.EvFUFPMul, 1)
	}
}

func fuClassOf(op isa.Op) int {
	switch op {
	case isa.OpIntAlu, isa.OpBranch, isa.OpNop:
		return fuIntAlu
	case isa.OpIntMul:
		return fuIntMul
	case isa.OpFPAlu:
		return fuFPAlu
	case isa.OpFPMul:
		return fuFPMul
	}
	return -1
}

// loadDone completes a load when its data arrives from the memory system.
func (c *Core) loadDone(seq int64) {
	if seq < c.headSeq {
		return // already committed: cannot happen for loads, defensive
	}
	e := c.entry(seq)
	if e.inst.SyncOp != isa.SyncNone {
		e.result = c.sync.Eval(c.id, e.inst)
	}
	c.meter.Add(c.id, power.EvLSQ, 1)
	c.finish(e)
}

// rmwDone completes an atomic once exclusive ownership is held; the logical
// sync effect is evaluated at this instant.
func (c *Core) rmwDone(seq int64) {
	e := c.entry(seq)
	e.result = c.sync.Eval(c.id, e.inst)
	c.meter.Add(c.id, power.EvLSQ, 1)
	c.finish(e)
}

// dispatch moves instructions from the front-end pipe into the ROB.
func (c *Core) dispatch() int {
	width := c.effWidth(c.knobs.DecodeWidth, c.cfg.DecodeWidth)
	n := 0
	for n < width && c.fpLen > 0 && c.count < len(c.rob) {
		f := &c.fpBuf[c.fpHead]
		if f.readyTick > c.tick {
			break
		}
		if f.inst.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize {
			break
		}
		c.fpHead++
		if c.fpHead == len(c.fpBuf) {
			c.fpHead = 0
		}
		c.fpLen--

		seq := c.nextSeq
		c.nextSeq++
		idx := c.head + c.count
		if idx >= len(c.rob) {
			idx -= len(c.rob)
		}
		c.count++
		e := &c.rob[idx]
		// Keep the entry's waiters backing array across reuse.
		w := e.waiters[:0]
		*e = robEntry{
			inst:         f.inst,
			seq:          seq,
			state:        stWaiting,
			predicted:    f.predicted,
			waiters:      w,
			dispatchTick: c.tick,
			fuClass:      -1,
		}

		c.meter.Add(c.id, power.EvDecode, 1)
		c.meter.Add(c.id, power.EvRename, 1)
		c.meter.Add(c.id, power.EvIQWrite, 1)
		c.meter.Add(c.id, power.EvROBWrite, 1)
		if f.inst.Op.IsMem() {
			c.meter.Add(c.id, power.EvLSQ, 1)
			c.lsqCount++
		}

		// Register data dependencies.
		for _, d := range [2]uint16{f.inst.Dep1, f.inst.Dep2} {
			if d == 0 {
				continue
			}
			depSeq := seq - int64(d)
			if depSeq < c.headSeq {
				continue // already committed
			}
			dep := c.entry(depSeq)
			if dep.state == stDone {
				continue
			}
			dep.waiters = append(dep.waiters, seq)
			e.pendingDeps++
		}
		if e.pendingDeps == 0 {
			e.state = stReady
			c.pushReady(seq)
		}
		n++
	}
	return n
}

// fetch consumes the instruction source, modeling I-cache access, branch
// prediction, serialize stalls and wrong-path phantom fetch.
func (c *Core) fetch() int {
	if c.srcDone && !c.hasPending {
		return 0
	}
	if c.knobs.FetchGate {
		return 0
	}
	if c.fetchStalled {
		c.stats.SerializeStalls++
		return 0
	}
	if c.icacheBusy {
		return 0
	}
	width := c.effWidth(c.knobs.FetchWidth, c.cfg.FetchWidth)
	if c.wrongPath {
		// Phantom wrong-path fetch: burns front-end energy, produces no
		// instructions (they would be squashed at resolution). The fetch
		// queue bounds the damage — once it would be full of wrong-path
		// instructions the front end stalls, as in a real machine.
		if c.wrongPathBuf >= c.fetchPipeCap-c.fpLen {
			return 0
		}
		c.wrongPathBuf += width
		c.meter.Add(c.id, power.EvFetch, width)
		c.meter.Add(c.id, power.EvDecode, width)
		c.meter.Add(c.id, power.EvL1I, 1)
		c.stats.WrongPathFetch += int64(width)
		return width
	}

	n := 0
	for n < width && c.fpLen < c.fetchPipeCap {
		inst, ok := c.nextInst()
		if !ok {
			break
		}
		line := inst.PC &^ 63
		if line != c.curFetchLine {
			if !c.mem.FetchProbe(c.id, inst.PC) {
				// I-miss: stall fetch until the fill arrives.
				c.icacheBusy = true
				c.pendingInst = inst
				c.hasPending = true
				c.fetchFillPC = inst.PC
				c.mem.FetchMiss(c.id, inst.PC, c.fetchFill)
				break
			}
			c.curFetchLine = line
		}

		c.meter.Add(c.id, power.EvFetch, 1)
		c.fetchedTokens += c.ptht.Lookup(inst.PC, c.tm.BaseTokens(inst.Op, inst.LongLat))

		predicted := inst.Taken
		if inst.Op == isa.OpBranch {
			predicted = c.bp.predict(inst.PC)
		}
		tail := c.fpHead + c.fpLen
		if tail >= len(c.fpBuf) {
			tail -= len(c.fpBuf)
		}
		c.fpBuf[tail] = fetchedInst{
			inst:      inst,
			predicted: predicted,
			readyTick: c.tick + int64(c.cfg.FrontendDepth),
		}
		c.fpLen++
		n++

		if inst.Serialize {
			c.fetchStalled = true
			break
		}
		if inst.Op == isa.OpBranch && predicted != inst.Taken {
			c.wrongPath = true
			break
		}
	}
	return n
}

// nextInst returns the pending instruction left over from an I-miss, or
// pulls the next one from the source.
func (c *Core) nextInst() (isa.Inst, bool) {
	if c.hasPending {
		c.hasPending = false
		return c.pendingInst, true
	}
	if c.srcDone {
		return isa.Inst{}, false
	}
	inst, ok := c.src.Next()
	if !ok {
		c.srcDone = true
		return isa.Inst{}, false
	}
	return inst, true
}
