"""A four-arrival queue trace, worked by hand and by the simulator.

Packets arrive at epochs 0, 1, 2, 3. The zeroth packet starts service
immediately and holds the server for 2.5 time units, so the arrivals at
1 and 2 find it busy and are dropped. The arrival at epoch 3 gets in after
the server has idled for 0.5, takes 1.0 of service, and departs at 4.0.

The departure stream (2.5, 1.5) is everything the receiver sees. The demo
then replays the decoder's view: given only those departures and the
codeword, it recovers the idle time exactly.
"""

from timingq import Codebook, SimConfig, idle_path, simulate, trace_csv

trace = simulate(SimConfig(arrival=[0.0, 1.0, 1.0, 1.0],
                           service=[2.5, 1.0], n=1))

print(trace_csv(trace), end="")
print()
print(f"admitted arrival indices : {trace.admitted_indices.tolist()}")
print(f"idle before 2nd service  : {trace.idle_times[0]}")
print(f"departure epochs         : {trace.departure_epochs.tolist()}")

book = Codebook.from_sequences([[0.0, 1.0, 1.0, 1.0]])
w0 = idle_path(book, 1, trace.inter_departures)[0]
print(f"decoder-side idle        : {w0} (bitwise equal: "
      f"{w0 == trace.idle_times[0]})")

assert trace.admitted_indices.tolist() == [0, 3]
assert trace.inter_departures.tolist() == [2.5, 1.5]
assert w0 == 0.5
