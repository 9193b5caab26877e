(** Distributed shared memory.

    One-copy semantics for all object code and data across the
    cluster, implemented by data servers acting as per-segment
    coherence managers ({!Dsm_server}) and a client partition on every
    node ({!Dsm_client}).  Data servers also host the segment lock
    service ({!Lock_table}) and the participant side of two-phase
    commit used by consistency-preserving threads ({!Participant}). *)

module Protocol = Protocol
module Lock_table = Lock_table
module Participant = Participant
module Dsm_server = Dsm_server
module Dsm_client = Dsm_client
