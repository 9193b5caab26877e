(** A Sun-NFS-like comparator protocol.

    The paper's 50 ms figure for an 8K transfer over NFS reflects
    NFS's structure at the time: a LOOKUP/GETATTR preamble and then
    synchronous READ RPCs of small blocks (1 KB), each a full request/
    reply round trip with per-RPC server-side overhead.  This module
    reproduces that structure over the simulated Ethernet. *)

val start_server :
  Net.Ethernet.t -> addr:Net.Address.t -> ?group:int -> unit -> unit

type client

val client : Net.Ethernet.t -> addr:Net.Address.t -> client

val fetch : client -> server:Net.Address.t -> bytes:int -> unit
(** Fetch [bytes] through sequential READ RPCs from the current
    process. *)
