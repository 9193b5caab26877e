(** Ablations: parameter sweeps over the design choices.

    Not paper tables — these vary what the paper held fixed, to show
    which costs come from where:

    - bandwidth: the 10 Mbit Ethernet vs a 100 Mbit one — how much
      of a page transfer and of a cold invocation is wire time vs
      host/protocol time;
    - scheduler: round-robin vs least-loaded thread placement
      under a skewed background load;
    - frame cache: bounded compute-server memory — demand paging
      with eviction (thrashing) vs unbounded frames;
    - loss: RaTP under frame loss — latency and retransmissions
      versus drop probability. *)

val run : unit -> Obs.Export.json
(** Run all four sweeps: one array of labelled points each, under
    ["wire_speed"], ["placement"], ["frame_cache"] and
    ["frame_loss"]. *)
