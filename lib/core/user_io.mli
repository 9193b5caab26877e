(** The user I/O manager.

    Threads write ASCII to the controlling terminal regardless of
    where they execute: output is routed over RaTP to the originating
    workstation's terminal server. *)

val install : Ra.Node.t -> Terminal.t -> unit
(** Serve this workstation's terminal. *)

val remote_print : Ra.Node.t -> workstation:Net.Address.t -> string -> unit
(** Send one output line from the node currently running the thread
    to its controlling workstation.  Unreachable workstations drop
    output silently (the user is gone). *)
