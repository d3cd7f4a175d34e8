package check

// EngineClone selects the clone engine, the reference implementation the
// undo engine is tested and benchmarked against.
const EngineClone = engineClone
