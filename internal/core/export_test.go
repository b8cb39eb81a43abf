package core

// NewReferenceScratch returns a Scratch whose synchronization-aware
// scheduler accepts extra arcs through the reference adder (refAdder), for
// holding the incremental adder's schedules to it.
func NewReferenceScratch() *Scratch { return &Scratch{adder: &refAdder{}} }

// EngineReference schedules through the reference engine (refScheduler).
type EngineReference = refScheduler

// NewEngineReference returns an empty EngineReference.
func NewEngineReference() *EngineReference { return &refScheduler{} }
