(** RaTP endpoints: reliable connectionless message transactions.

    RaTP is modeled on VMTP (as in the paper): a client performs a
    {e message transaction} — a request matched by a reply — with
    at-most-once semantics.  The transport handles fragmentation to
    the MTU, retransmission with exponential backoff, duplicate
    suppression through a server-side transaction cache, and explicit
    acknowledgement of replies so servers can release state early.

    Retransmission is {e selective} by default (DESIGN.md §12): a
    retry timeout sends a one-frame probe instead of the full burst;
    the peer answers with a received-fragment bitmap ({!Packet.Nack})
    or with just the missing reply fragments, so a single lost
    fragment of a large message costs one fragment on the wire, not
    the whole burst.  The retry timer is a per-destination
    Jacobson/Karels estimate, and a call gives up after a budget of
    silence rather than a count of attempts (DESIGN.md §12).

    Each endpoint owns the NIC of one machine and runs a receive loop
    process; server handlers run in their own processes so a slow
    handler never blocks reception. *)

type config = {
  retry_initial : Sim.Time.span;  (** RTO before the first RTT sample *)
  max_attempts : int;
      (** sizes the give-up budget: a call gives up after the silence
          of [max_attempts] doubling waits from [retry_initial] *)
  selective_retransmit : bool;
      (** on timeout, probe for the peer's received-fragment bitmap
          and resend only what is missing (default on; loss-free
          packet streams are identical to the full-burst path) *)
}

val default_config : config
(** [selective_retransmit] on; 50 ms initial RTO doubling over 8
    waits (a 12.75 s give-up budget).  Fixed for every endpoint: 1400
    message bytes per fragment, a learned RTO clamped to [2 ms, 4 s],
    and server-side transaction state (cached replies, partial request
    bursts) kept 5 s after it goes quiet. *)

val proc_cost : Sim.Time.span
(** Protocol processing charged per transaction step (request issue,
    request dispatch, reply issue, reply consumption).  Calibrated so
    that a null transaction costs about twice the raw 72-byte Ethernet
    round trip, matching the paper's 4.8 ms vs 2.4 ms. *)

type error = Timeout
(** The transaction's give-up budget of silence ran out. *)

type handler = src:Net.Address.t -> Packet.body -> Packet.body * int
(** A service: receives the request body, returns the reply body and
    its size in bytes.  Runs in a dedicated process; may block. *)

type t

val create :
  Net.Ethernet.t ->
  addr:Net.Address.t ->
  ?group:int ->
  ?config:config ->
  unit ->
  t
(** Attach to the Ethernet at [addr] and start the receive loop.
    [group] tags the endpoint's processes for {!Sim.Engine.kill_group}
    (machine crash). *)

val serve : t -> service:int -> handler -> unit
(** Register the handler for a service id.  Replaces any previous
    handler for that id. *)

val call :
  t ->
  dst:Net.Address.t ->
  service:int ->
  size:int ->
  Packet.body ->
  (Packet.body, error) result
(** Perform a message transaction from the current process: fragment
    and send the request, await the complete reply, acknowledge it.
    Returns [Error Timeout] once the give-up budget of silence has
    passed with no reply. *)

val restart : t -> unit
(** After a machine crash ({!Sim.Engine.kill_group} plus NIC detach),
    bring the endpoint back up: discard all transaction state (client
    table and server cache) and spawn a fresh receive loop.  The
    sequence space and RTT estimators are kept — reusing a tid would
    defeat peers' duplicate suppression.  The NIC must be reattached
    by the caller. *)

val server_cache_size : t -> int
(** Entries in the server-side transaction table (accumulating
    bursts, running handlers, cached replies).  Introspection for
    tests: abandoned bursts and acknowledged replies must not pin
    entries past the 5 s retention. *)

type peer_stats = {
  peer : Net.Address.t;
  retrans : int;  (** retransmission events toward this peer *)
  nacks : int;  (** Nacks sent to this peer *)
  rto_ms : float;  (** current RTO estimate for this peer *)
}

val peer_stats : t -> peer_stats list
(** One entry per peer this endpoint has a round-trip sample for or
    has retransmitted to or sent a Nack to, sorted by peer: the
    per-destination counters ([ratp.retrans], [ratp.nacks], backed by
    {!Sim.Stats.keyed}) beside the learned RTO.  Lets an experiment
    attribute retransmissions to the peer that caused them. *)

val metrics : t -> Sim.Stats.metric list
(** Live metric handles under ["ratp/"] paths, for a per-node
    {!Obs.Registry}: ["ratp/retrans"] (request retransmissions, all
    transactions, probes included), ["ratp/retrans_bytes"] (payload
    bytes put on the wire more than once, request fragments resent by
    the client side plus reply fragments resent by the server side:
    the headline metric of the selective-retransmission A/B),
    ["ratp/nacks"] (selective-retransmission bitmaps, {!Packet.Nack},
    sent by the server side), ["ratp/transactions"] (completed client
    transactions) and the per-destination families
    ["ratp/retrans_by"] and ["ratp/nacks_by"].  The learned RTO is
    read through {!peer_stats}, not the registry. *)
