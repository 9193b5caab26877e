(** IsiBas: Ra's abstraction of activity.

    An isiba is a light-weight kernel resource that becomes a
    schedulable entity when paired with a stack.  Clouds processes
    are isibas with user stacks; system objects use kernel and
    interrupt stacks for services, event notification and
    watchdogs.  In the simulation an isiba is a process tagged with
    its node (so crashes kill it) whose computation is charged to the
    node's CPU. *)

type stack = Kernel | User | Interrupt

type t = {
  pid : Sim.Engine.pid;
  stack : stack;
  node : Node.t;
}

val spawn : Node.t -> ?stack:stack -> string -> (unit -> unit) -> t
(** Start an isiba on a node.  Default stack type is [Kernel]. *)

val compute : Node.t -> Sim.Time.span -> unit
(** Charge CPU work for the calling process on the node's
    processor. *)
