(** IsiBas: Ra's abstraction of activity.

    An isiba is a light-weight kernel resource that becomes a
    schedulable entity when paired with a stack.  Clouds processes
    are isibas with user stacks; system objects use kernel and
    interrupt stacks for services, event notification and
    watchdogs.  In the simulation an isiba is a process started with
    {!Node.spawn} (tagged with its node, so crashes kill it); all
    this module adds is charging its computation to the node's CPU. *)

val compute : Node.t -> Sim.Time.span -> unit
(** Charge CPU work for the calling process on the node's
    processor. *)
