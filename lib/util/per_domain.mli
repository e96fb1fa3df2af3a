(** One reusable value per domain, lent to one holder at a time.

    A hot path that needs a buffer per call (a query's workspace, a
    distance kernel's rows) takes its domain's value, works in it and
    gives it back, so steady-state calls allocate nothing.  {!take}
    leaves the domain's slot vacant until {!give}; a caller that finds
    it vacant — a call nested inside the holder, or another systhread of
    the same domain running while the holder is mid-call — gets a fresh
    value instead, so two live holders never share one. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make create]: each domain's slot starts as [create ()].  [create]
    must return a physically fresh value on every call (not a shared
    constant such as [[||]]): one of them marks the slot as vacant. *)

val take : 'a t -> 'a
(** The calling domain's value, or a fresh [create ()] when the slot is
    vacant.  Either way the slot is vacant until the next {!give}. *)

val give : 'a t -> 'a -> unit
(** [give t v] makes [v] the calling domain's value: the one {!take}
    returned, or a replacement (for instance a grown buffer).  Must not
    be called with a value another holder may still use. *)
