(** Round-indexed sliding store.

    The algorithms of the paper index state by round number ([rec_from.(rn)],
    [suspicions.(rn).(k)]) for an unbounded range of rounds. Only a bounded
    suffix of rounds is ever read again (the window of line [*] in Figure 2),
    so this store keeps a power-of-two ring over the span of live rounds
    (round [rn] at slot [rn mod capacity]; the capacity doubles when a round
    falls outside the span) plus a [floor]: all rounds below the floor have
    been discarded and behave as absent. Lookups hash nothing, and the ring
    is at most twice the widest span of live rounds the store ever held.

    Lookups below the floor return [None] — callers must choose their prune
    bound so that semantics are preserved (see DESIGN.md §2). *)

type 'a t

val create : unit -> 'a t

(** Smallest round that may still hold an entry. Initially [0]. *)
val floor : 'a t -> int

(** Number of live entries. *)
val cardinal : 'a t -> int

(** [find t rn] is the entry for round [rn], if any. *)
val find : 'a t -> int -> 'a option

(** [find_exn t rn] is the entry for round [rn]; raises [Not_found] if the
    round is absent {e or below the floor}. The hit path is allocation-free
    where {!find}'s [Some] box is a per-call allocation — use this from
    per-message code (the window check of line [*]). *)
val find_exn : 'a t -> int -> 'a

(** [find_or_add t rn ~default] returns the entry for [rn], creating it with
    [default ()] if absent. Raises [Invalid_argument] if [rn < floor t]:
    resurrecting a pruned round would silently corrupt the algorithm. *)
val find_or_add : 'a t -> int -> default:(unit -> 'a) -> 'a

(** [set t rn v] stores [v] for round [rn]. Raises below the floor. *)
val set : 'a t -> int -> 'a -> unit

(** [prune_below ~recycle t bound] discards every round [< bound] and
    raises the floor to [max (floor t) bound]. [recycle] is applied to each
    discarded value, in ascending round order, so callers can return
    round-sized cells to a freelist instead of re-allocating them every
    round; callers without a freelist pass [ignore]. The argument is
    required rather than optional: an optional one passed from a mutable
    field is boxed in a fresh [Some] on every call. *)
val prune_below : recycle:('a -> unit) -> 'a t -> int -> unit

(** [remove ~recycle t rn] discards round [rn]'s entry (if any) {e without}
    moving the floor — unlike {!prune_below}, later reads of [rn] simply
    see an absent round. [recycle] is applied to the discarded value. The
    caller owns the semantics of the hole ([Omega.Node] collapses
    fully-received round prefixes into a scalar, DESIGN.md §16); raises
    below the floor. *)
val remove : recycle:('a -> unit) -> 'a t -> int -> unit

(** Largest live round, if any entry exists, in constant time. *)
val max_round : 'a t -> int option
