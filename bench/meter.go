package main

import (
	"sync"
	"time"
)

// blockMeter cuts the measured phase into blocks of a fixed number of
// completed jobs and reads the clock, the server's CPU time and the
// simulated-event total at each boundary. The throughput and CPU
// metrics are medians over the blocks: the host this runs on has slow
// spells of a few seconds, which lower a whole-run mean by however long
// they last but move a median of blocks only once they cover half the
// run. A block is a count of jobs, not a stretch of time, so no block
// rate is quantised by a job that straddles the boundary, and on
// protocol-mix every block holds whole rotations of the eight kinds.
type blockMeter struct {
	srv  *server
	size int // jobs per block
	mark int // completed count at which the server's peak RSS is read

	mu        sync.Mutex
	events    int64
	readings  []blockReading
	rssAtMark float64
	err       error
}

type blockReading struct {
	at     time.Time
	cpuMS  float64
	events int64
}

// read appends a boundary reading; the caller holds mu (or is alone).
func (m *blockMeter) read() {
	cpu, err := m.srv.cpuMS()
	if err != nil && m.err == nil {
		m.err = err
	}
	m.readings = append(m.readings, blockReading{time.Now(), cpu, m.events})
}

// onJob is the phase's completion hook.
func (m *blockMeter) onJob(completed int, r *jobRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events += r.events
	if completed%m.size == 0 {
		m.read()
	}
	if completed == m.mark {
		rss, err := m.srv.rssPeakMiB()
		if err != nil && m.err == nil {
			m.err = err
		}
		m.rssAtMark = rss
	}
}

// blocks returns, per completed block, jobs per second, simulated
// events per second and server CPU ms per job.
func (m *blockMeter) blocks() (jobsPerS, eventsPerS, cpuMSPerJob []float64) {
	for i := 1; i < len(m.readings); i++ {
		a, b := m.readings[i-1], m.readings[i]
		dt := b.at.Sub(a.at).Seconds()
		jobsPerS = append(jobsPerS, float64(m.size)/dt)
		eventsPerS = append(eventsPerS, float64(b.events-a.events)/dt)
		cpuMSPerJob = append(cpuMSPerJob, (b.cpuMS-a.cpuMS)/float64(m.size))
	}
	return jobsPerS, eventsPerS, cpuMSPerJob
}
