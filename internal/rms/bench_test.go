package rms

import "testing"

func BenchmarkMemStoreAddGet(b *testing.B) {
	s := NewMemStore("bench", 0)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id, err := s.Add(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get(id); err != nil {
			b.Fatal(err)
		}
	}
}
