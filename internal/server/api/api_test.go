package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestWriteErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, CodeBadRequest, errors.New("boom"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeBadRequest || env.Error.Message != "boom" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestParsePage(t *testing.T) {
	cases := []struct {
		query   string
		want    Page
		wantErr bool
	}{
		{"", Page{Limit: 100}, false},
		{"?limit=5", Page{Limit: 5}, false},
		{"?limit=5000", Page{Limit: 1000}, false},
		{"?offset=7", Page{Limit: 100, Offset: 7}, false},
		{"?limit=3&offset=2", Page{Limit: 3, Offset: 2}, false},
		{"?limit=0", Page{}, true},
		{"?limit=-1", Page{}, true},
		{"?limit=x", Page{}, true},
		{"?offset=-2", Page{}, true},
		{"?offset=x", Page{}, true},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs"+tc.query, nil)
		got, err := ParsePage(r, 100, 1000)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParsePage(%q): want error", tc.query)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePage(%q): %v", tc.query, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParsePage(%q) = %+v, want %+v", tc.query, got, tc.want)
		}
	}
}

func TestPageWindow(t *testing.T) {
	cases := []struct {
		page   Page
		n      int
		lo, hi int
	}{
		{Page{Limit: 10}, 5, 0, 5},
		{Page{Limit: 3}, 5, 0, 3},
		{Page{Limit: 3, Offset: 4}, 5, 4, 5},
		{Page{Limit: 3, Offset: 9}, 5, 5, 5},
	}
	for _, tc := range cases {
		lo, hi := tc.page.Window(tc.n)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%+v.Window(%d) = %d,%d want %d,%d", tc.page, tc.n, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{90 * time.Second, 90},
	} {
		if got := RetryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
