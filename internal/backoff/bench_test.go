package backoff_test

import (
	"testing"

	"selfishmac/internal/layerbench"
)

func BenchmarkDraw(b *testing.B) { layerbench.Draw(b) }
