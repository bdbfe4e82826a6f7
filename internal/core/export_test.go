package core

// WideDataset exports wideDataset to the external tests in package
// core_test, which rank through internal/causal, an import package core
// itself cannot take.
var WideDataset = wideDataset
