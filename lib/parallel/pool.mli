(** Deterministic fan-out of independent tasks over OCaml 5 domains.

    The pool exists for one workload shape: many seed-deterministic
    simulation runs that share no mutable state. Tasks are submitted as a
    batch and their results are returned {e in submission order}, so a
    program that computes values on the pool and only then renders them is
    byte-identical to its sequential counterpart — which domain evaluated a
    task is unobservable.

    Worker domains are fixed at creation (no work stealing, no dynamic
    resizing). Task→domain assignment is dynamic (workers pull from a shared
    queue under a mutex), which is safe precisely because tasks must be
    independent: a task must not touch mutable state reachable from another
    task, and in this codebase it must own its whole simulation stack
    (engine, RNG streams, event queue). No two domains share one engine:
    a run sharded over several domains (DESIGN.md §18) gives each domain
    its own replica engine; see DESIGN.md "Parallel execution".

    The submitting domain participates in draining the queue, so a pool
    created with [jobs:1] spawns no domains at all and [run] degenerates to
    a plain sequential [Array.map] — the path used to prove byte-identical
    output. This also makes nested [run] calls on the same pool
    deadlock-free: a waiting submitter only blocks once the queue is empty,
    hence only while other tasks are actually executing. *)

type t

(** [create ~jobs ()] is a pool that evaluates up to [jobs] tasks
    concurrently: the submitter plus [jobs - 1] worker domains. Raises
    [Invalid_argument] if [jobs < 1]. *)
val create : jobs:int -> unit -> t

(** Concurrency of the pool, as passed to {!create}. *)
val jobs : t -> int

(** A pool that evaluates everything in the submitting domain. *)
val sequential : t

(** [run pool thunks] evaluates every thunk and returns their results in
    submission order. If a thunk raises, the first such exception (again in
    submission order) is re-raised in the submitter after all tasks have
    finished, so no domain is left running a stale task. *)
val run : t -> (unit -> 'a) array -> 'a array

(** [map pool f xs] is [run] over [fun () -> f x], keeping list order. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Stop the worker domains and join them. Idempotent. Calling [run] after
    [shutdown] raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f pool] and shuts the pool down afterwards,
    exceptions included. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
