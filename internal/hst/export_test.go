package hst

// LevelUniform reports whether t is level-uniform, so that KNN reads
// each ring of t as one range of tied points.
func LevelUniform(t *Tree) bool { return t.levelW != nil }

// OracleKNN is the reference KNN the kernel matches bit for bit.
var OracleKNN = oracleKNN
