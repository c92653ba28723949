(** Resizable binary min-heap.

    Elements are ordered by a total order supplied at creation time. Ties are
    broken by insertion order (FIFO), which the discrete-event engine relies
    on for deterministic scheduling of simultaneous events. *)

type 'a t

(** [create ~compare] is an empty heap ordered by [compare]. *)
val create : compare:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push q x] inserts [x]. O(log n). *)
val push : 'a t -> 'a -> unit

(** [peek q] is the minimum element, without removing it. *)
val peek : 'a t -> 'a option

(** [peek_exn q] is [peek q] but raises [Invalid_argument] on an empty
    heap; unlike [peek] it allocates no option. *)
val peek_exn : 'a t -> 'a

(** [drop_exn q] removes the minimum element without returning it. Raises
    [Invalid_argument] on an empty heap. [peek_exn] + [drop_exn] is the
    allocation-free rendering of [pop] for hot loops. *)
val drop_exn : 'a t -> unit

(** [pop q] removes and returns the minimum element.

    Regression note: an earlier version wrote the popped element back into
    the vacated backing slot, keeping every popped element GC-reachable
    until its slot was reused by a later [push]. The slot is now aliased to
    a live element instead, and the pop that empties the heap (which has no
    live element to alias, and no dummy to write — the heap is polymorphic)
    drops the backing arrays entirely, so an empty heap retains no element
    at all. The next push after an empty transition re-grows from the
    minimum capacity; steady non-empty traffic never re-allocates. *)
val pop : 'a t -> 'a option

(** [pop_exn q] is [pop q] but raises [Invalid_argument] on an empty heap. *)
val pop_exn : 'a t -> 'a

val clear : 'a t -> unit

(** [to_sorted_list q] drains a copy of the heap in ascending order, leaving
    [q] unchanged. Intended for tests and debugging. *)
val to_sorted_list : 'a t -> 'a list
