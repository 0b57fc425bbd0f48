package goroutinejoin_test

import (
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/goroutinejoin"
)

func TestGoroutinejoinPositive(t *testing.T) {
	atest.Run(t, "testdata/src/internal/harness", goroutinejoin.Analyzer)
}

func TestGoroutinejoinOutOfScopeIsClean(t *testing.T) {
	atest.Run(t, "testdata/src/outofscope", goroutinejoin.Analyzer)
}
