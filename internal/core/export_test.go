package core

// TrainingSet returns a copy of the embedded training data the built-in
// model is fitted to.
func TrainingSet() ([]float64, []bool) {
	cf := append([]float64(nil), builtinTraining.cf...)
	labels := append([]bool(nil), builtinTraining.labels...)
	return cf, labels
}
