type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a array;  (* data.(0 .. size-1) is the heap *)
  mutable size : int;
  mutable ticket : int;  (* insertion counter, breaks comparison ties *)
  mutable tickets : int array;  (* ticket of data.(i), same length as data *)
}

let create ~compare =
  { compare; data = [||]; size = 0; ticket = 0; tickets = [||] }

let length q = q.size
let is_empty q = q.size = 0

(* Full order used internally: user order, then insertion order. *)
let lt q i j =
  let c = q.compare q.data.(i) q.data.(j) in
  if c <> 0 then c < 0 else q.tickets.(i) < q.tickets.(j)

let swap q i j =
  let tmp = q.data.(i) in
  q.data.(i) <- q.data.(j);
  q.data.(j) <- tmp;
  let tk = q.tickets.(i) in
  q.tickets.(i) <- q.tickets.(j);
  q.tickets.(j) <- tk

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = i in
  let smallest = if l < q.size && lt q l smallest then l else smallest in
  let smallest = if r < q.size && lt q r smallest then r else smallest in
  if smallest <> i then begin
    swap q i smallest;
    sift_down q smallest
  end

let grow q x =
  let capacity = max 8 (2 * Array.length q.data) in
  let data = Array.make capacity x in
  Array.blit q.data 0 data 0 q.size;
  let tickets = Array.make capacity 0 in
  Array.blit q.tickets 0 tickets 0 q.size;
  q.data <- data;
  q.tickets <- tickets

let push q x =
  if q.size = Array.length q.data then grow q x;
  q.data.(q.size) <- x;
  q.tickets.(q.size) <- q.ticket;
  q.ticket <- q.ticket + 1;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let peek q = if q.size = 0 then None else Some q.data.(0)

let peek_exn q =
  if q.size = 0 then invalid_arg "Pqueue.peek_exn: empty heap";
  q.data.(0)

(* Remove the minimum without returning it: with [peek_exn], lets hot loops
   (the engine's event loop) avoid the [Some] box that [pop] allocates per
   element. *)
let drop_exn q =
  if q.size = 0 then invalid_arg "Pqueue.drop_exn: empty heap";
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.data.(0) <- q.data.(q.size);
    q.tickets.(0) <- q.tickets.(q.size);
    sift_down q 0;
    (* Release the vacated slot's reference so the GC can reclaim popped
       elements; [data.(0)] is live, so aliasing it leaks nothing. *)
    q.data.(q.size) <- q.data.(0)
  end
  else begin
    (* The pop that empties the heap has no live element to alias the slot
       to, and the heap is polymorphic so there is no dummy to write
       either: drop the backing arrays. The next push re-grows from the
       minimum capacity — an O(1) cost paid only on the empty transition. *)
    q.data <- [||];
    q.tickets <- [||]
  end

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.data.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.data.(0) <- q.data.(q.size);
      q.tickets.(0) <- q.tickets.(q.size);
      sift_down q 0;
      q.data.(q.size) <- q.data.(0)
    end
    else begin
      q.data <- [||];
      q.tickets <- [||]
    end;
    Some top
  end

let pop_exn q =
  match pop q with
  | Some x -> x
  | None -> invalid_arg "Pqueue.pop_exn: empty heap"

let clear q =
  q.data <- [||];
  q.tickets <- [||];
  q.size <- 0

let to_sorted_list q =
  let copy =
    {
      compare = q.compare;
      data = Array.sub q.data 0 (Array.length q.data);
      size = q.size;
      ticket = q.ticket;
      tickets = Array.sub q.tickets 0 (Array.length q.tickets);
    }
  in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []
