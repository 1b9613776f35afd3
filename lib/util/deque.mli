(** Persistent double-ended queues (two-list banker's deque).

    Used for the send-order view of a channel (FIFO delivery policies) and
    for event queues in the simulator.  All operations are amortised O(1)
    except [length]-independent ones noted below. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

(** O(1). *)
val length : 'a t -> int

val push_back : 'a -> 'a t -> 'a t
val push_front : 'a -> 'a t -> 'a t
val pop_front : 'a t -> ('a * 'a t) option
val pop_back : 'a t -> ('a * 'a t) option
val peek_front : 'a t -> 'a option
val peek_back : 'a t -> 'a option

(** Front-to-back order. O(n). *)
val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

(** [remove_first p t] removes the first (front-most) element satisfying
    [p], returning it; [None] if no element matches. O(n). *)
val remove_first : ('a -> bool) -> 'a t -> ('a * 'a t) option

(** [filter p t] keeps elements satisfying [p], preserving order. O(n). *)
val filter : ('a -> bool) -> 'a t -> 'a t

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** A hash of the length and the front-to-back sequence that reads every
    element ([Hashtbl.hash] each), for state hash hooks: [Hashtbl.hash]
    on [to_list t] stops after 10 meaningful words, so long queues
    would share a value.  Deques holding the same sequence hash equally
    whatever their internal split.  O(n), allocates nothing. *)
val hash : 'a t -> int
val exists : ('a -> bool) -> 'a t -> bool
