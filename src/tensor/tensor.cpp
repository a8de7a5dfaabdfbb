#include "tensor/tensor.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>

#include "tensor/tape.hpp"

namespace gnntrans::tensor {

namespace {

thread_local bool g_grad_enabled = true;
/// This thread's tape; every Tensor on it shares its ownership.
thread_local std::shared_ptr<Tape> t_tape;

/// A tensor that owns its floats.
struct Leaf final : TensorImpl {
  std::vector<float> storage;
  std::vector<float> grad_storage;

  Leaf(std::vector<float> data, std::size_t r, std::size_t c, bool grad)
      : storage(std::move(data)) {
    rows = r;
    cols = c;
    value = Buffer(storage.data(), storage.size());
    requires_grad = grad;
  }
};

constexpr std::size_t kAlign = 64;
/// The smallest block a tape maps.
constexpr std::size_t kMinBlock = std::size_t{64} << 10;
// Under AddressSanitizer every take is followed by a poisoned gap, and the
// slab's free room stays poisoned, so an op that runs past its buffer is
// reported as it was when each buffer was its own allocation.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kRedzone = kAlign;
#else
constexpr std::size_t kRedzone = 0;
#endif

// The tape's blocks are mapped from the system, not taken from malloc: a
// slab of a megabyte or more that is resized a few times per training run
// would otherwise move glibc's mmap threshold and leave heap holes that
// later allocations of the process (the next model's samples) keep resident.
std::byte* map_block(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  ASAN_POISON_MEMORY_REGION(p, bytes);
  return static_cast<std::byte*>(p);
}

/// This thread's tape, started over when no tensor on it is alive.
Tape& recording_tape() {
  if (!t_tape)
    t_tape = std::make_shared<Tape>();
  else if (t_tape.use_count() == 1)
    t_tape->start_over();
  return *t_tape;
}

/// Records an op over the \p count operands get(0), get(1), ..., the first
/// \p parents of them walked by backward().
template <class Get>
OpResult record_impl(Op op, std::size_t rows, std::size_t cols, std::size_t count,
                     std::size_t parents, Get get) {
  if (!g_grad_enabled) {
    auto leaf = std::make_shared<Leaf>(std::vector<float>(rows * cols, 0.0f), rows,
                                       cols, false);
    float* out = leaf->value.data();
    return {Tensor(std::move(leaf)), nullptr, out};
  }
  Tape& tape = recording_tape();
  Node& node = tape.add_node(rows, cols);
  for (std::size_t i = 0; i < parents; ++i) node.requires_grad |= get(i).requires_grad();
  if (node.requires_grad) {
    const std::span<TensorImpl*> held = tape.take<TensorImpl*>(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::shared_ptr<TensorImpl>& impl = get(i).impl();
      if (impl->tape != &tape) tape.hold(impl);
      held[i] = impl.get();
    }
    node.operands = held;
    node.parents = static_cast<std::uint32_t>(parents);
    node.op = op;
  }
  return {Tensor(std::shared_ptr<TensorImpl>(t_tape, &node)),
          node.requires_grad ? &node : nullptr, node.value.data()};
}

}  // namespace

void TensorImpl::ensure_grad() {
  if (!grad.empty() || size() == 0) return;
  if (tape) {
    const std::span<float> zeros = tape->take<float>(size());
    std::fill(zeros.begin(), zeros.end(), 0.0f);
    grad = Buffer(zeros.data(), zeros.size());
  } else {
    Leaf& leaf = static_cast<Leaf&>(*this);
    leaf.grad_storage.assign(size(), 0.0f);
    grad = Buffer(leaf.grad_storage.data(), size());
  }
}

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool grad_enabled() noexcept { return g_grad_enabled; }

void release_tape() noexcept {
  if (t_tape && t_tape.use_count() == 1) t_tape.reset();
}

Tensor::Tensor(std::size_t rows, std::size_t cols, bool requires_grad)
    : impl_(std::make_shared<Leaf>(std::vector<float>(rows * cols, 0.0f), rows,
                                   cols, requires_grad)) {}

Tensor Tensor::from_data(std::vector<float> data, std::size_t rows,
                         std::size_t cols, bool requires_grad) {
  if (data.size() != rows * cols)
    throw std::invalid_argument("Tensor::from_data: size mismatch");
  return Tensor(std::make_shared<Leaf>(std::move(data), rows, cols, requires_grad));
}

OpResult record(Op op, std::size_t rows, std::size_t cols,
                std::initializer_list<const Tensor*> operands, std::size_t parents) {
  return record_impl(op, rows, cols, operands.size(), parents,
                     [&](std::size_t i) -> const Tensor& { return *operands.begin()[i]; });
}

OpResult record(Op op, std::size_t rows, std::size_t cols,
                std::span<const Tensor> operands) {
  return record_impl(op, rows, cols, operands.size(), operands.size(),
                     [&](std::size_t i) -> const Tensor& { return operands[i]; });
}

OpResult record(Op op, std::size_t rows, std::size_t cols, const Tensor& first,
                std::span<const Tensor> rest) {
  return record_impl(op, rows, cols, rest.size() + 1, rest.size() + 1,
                     [&](std::size_t i) -> const Tensor& {
                       return i == 0 ? first : rest[i - 1];
                     });
}

// ---- Tape ----

Tape::~Tape() { free_blocks(); }

void Tape::free_blocks() noexcept {
  for (const Block& b : blocks_) {
    ASAN_UNPOISON_MEMORY_REGION(b.data, b.size);
    ::munmap(b.data, b.size);
  }
  blocks_.clear();
  used_ = 0;
}

void* Tape::take_bytes(std::size_t size) {
  const std::size_t bytes = (size + kRedzone + kAlign - 1) / kAlign * kAlign;
  taken_ += bytes;
  if (blocks_.empty() || used_ + bytes > blocks_.back().size) {
    // Overflow: a block as large as the step so far, so a step needs few.
    const std::size_t size = std::max({bytes, taken_, kMinBlock});
    blocks_.push_back({map_block(size), size});
    used_ = 0;
  }
  void* at = blocks_.back().data + used_;
  used_ += bytes;
  ASAN_UNPOISON_MEMORY_REGION(at, size);
  return at;
}

Node& Tape::add_node(std::size_t rows, std::size_t cols) {
  Node* node = new (take_bytes(sizeof(Node))) Node;
  node->rows = rows;
  node->cols = cols;
  node->tape = this;
  node->value = Buffer(take<float>(rows * cols).data(), rows * cols);
  return *node;
}

void Tape::start_over() {
  if (taken_ == 0) return;
  held_.clear();
  if (blocks_.size() > 1) {
    free_blocks();
    blocks_.push_back({map_block(taken_), taken_});
  }
  ASAN_POISON_MEMORY_REGION(blocks_.back().data, used_);
  used_ = 0;
  taken_ = 0;
}

void Tape::backward(Node& root) {
  // Topological order by iterative DFS over the operands backward() walks,
  // children before parents; processed root first. The order fixes how a
  // gradient with several consumers is summed.
  const std::uint32_t pass = ++pass_;
  order_.clear();
  stack_.clear();
  stack_.emplace_back(&root, 0);
  root.visit = pass;
  while (!stack_.empty()) {
    auto& [node, next_child] = stack_.back();
    if (next_child < node->parents) {
      TensorImpl* child = node->operands[next_child++];
      if (child->tape && child->requires_grad) {
        Node* c = static_cast<Node*>(child);
        if (c->visit != pass) {
          c->visit = pass;
          stack_.emplace_back(c, 0);
        }
      }
    } else {
      order_.push_back(node);
      stack_.pop_back();
    }
  }

  root.ensure_grad();
  root.grad[0] += 1.0f;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    Node* node = *it;
    if (node->requires_grad) {
      node->ensure_grad();
      node->run_backward();
    }
  }
}

void Tensor::backward() {
  if (size() != 1)
    throw std::logic_error("Tensor::backward: only scalar roots supported");
  if (impl_->tape) {
    impl_->tape->backward(static_cast<Node&>(*impl_));
  } else {
    impl_->ensure_grad();
    impl_->grad[0] += 1.0f;
  }
}

void backward_step_for_testing(const Tensor& t) {
  if (!t.defined() || !t.impl()->tape || !t.requires_grad())
    throw std::logic_error("backward_step_for_testing: not an op result with grad");
  static_cast<Node&>(*t.impl()).run_backward();
}

}  // namespace gnntrans::tensor
