#include "ksm/content_tree.hh"

#include <vector>

#include "prof/profiler.hh"
#include "sim/logging.hh"
#include "sim/simd.hh"

namespace pageforge
{

PageCompare
comparePages(const std::uint8_t *a, const std::uint8_t *b)
{
    prof::ScopedTimer timer(prof::Site::SimdCompare);
    std::uint32_t off = simd::firstDiff(a, b, 0, pageSize);
    if (off == pageSize)
        return {0, pageSize};
    return {a[off] < b[off] ? -1 : 1, off + 1};
}

struct ContentTree::Node
{
    PageHandle handle = 0;
    Node *parent = nullptr;
    Node *left = nullptr;
    Node *right = nullptr;
    bool red = false;
};

namespace
{
/** Nodes per pool slab; 256 x 40 B keeps slabs around 10 KB. */
constexpr std::size_t poolChunkNodes = 256;
} // namespace

ContentTree::ContentTree(PageAccessor &accessor) : _accessor(accessor)
{
    _nil = nullptr; // makeNode links new nodes to _nil; fixed up below
    _nil = makeNode(0);
    _nil->red = false;
    _nil->parent = _nil->left = _nil->right = _nil;
    _root = _nil;
}

ContentTree::~ContentTree()
{
    clear();
    // _nil and all recycled nodes are owned by _chunks.
}

ContentTree::Node *
ContentTree::makeNode(PageHandle handle)
{
    Node *node;
    if (_freeNodes) {
        node = _freeNodes;
        _freeNodes = node->parent; // intrusive next-free link
    } else {
        if (_chunks.empty() || _chunkUsed == poolChunkNodes) {
            _chunks.push_back(std::make_unique<Node[]>(poolChunkNodes));
            _chunkUsed = 0;
        }
        node = &_chunks.back()[_chunkUsed++];
    }
    node->handle = handle;
    node->parent = node->left = node->right = _nil;
    node->red = true;
    return node;
}

void
ContentTree::freeNode(Node *node)
{
    node->parent = _freeNodes;
    _freeNodes = node;
}

void
ContentTree::destroySubtree(Node *node)
{
    if (node == _nil)
        return;
    // Explicit stack: recursion depth equals tree height, and while a
    // healthy red-black tree is logarithmic, churn workloads tear down
    // large trees often enough that we refuse to bet the host stack on
    // it. Release order must stay post-order (left, right, node) — the
    // accessor may free simulated frames, and release order is visible
    // to the deterministic allocator.
    std::vector<std::pair<Node *, bool>> stack;
    stack.push_back({node, false});
    while (!stack.empty()) {
        auto &[top, expanded] = stack.back();
        if (!expanded) {
            expanded = true;
            Node *right = top->right;
            Node *left = top->left;
            if (right != _nil)
                stack.push_back({right, false});
            if (left != _nil)
                stack.push_back({left, false});
        } else {
            Node *cur = top;
            stack.pop_back();
            _accessor.release(cur->handle);
            freeNode(cur);
        }
    }
}

void
ContentTree::clear()
{
    destroySubtree(_root);
    _root = _nil;
    _size = 0;
}

ContentTree::SearchResult
ContentTree::search(const std::uint8_t *probe, const CompareHook &hook)
{
    // Inclusive of the nested SimdCompare samples: the site measures
    // the whole walk, compares and all.
    prof::ScopedTimer timer(prof::Site::ContentTreeSearch);
    SearchResult result;

restart:
    Node *cur = _root;
    Node *parent = _nil;
    bool went_left = false;

    while (cur != _nil) {
        const std::uint8_t *node_data = _accessor.resolve(cur->handle);
        if (!node_data) {
            // Stale node: drop it like KSM drops pages that vanished,
            // then restart from the root (the tree just changed shape).
            erase(cur);
            result.match = nullptr;
            goto restart;
        }

        PageCompare cmp = comparePages(probe, node_data);
        ++result.nodesVisited;
        result.bytesCompared += cmp.bytesExamined;
        if (hook)
            hook(cur->handle, cmp);

        if (cmp.sign == 0) {
            result.match = cur;
            result.parent = cur->parent == _nil ? nullptr : cur->parent;
            return result;
        }
        parent = cur;
        went_left = cmp.sign < 0;
        cur = went_left ? cur->left : cur->right;
    }

    result.match = nullptr;
    result.parent = parent == _nil ? nullptr : parent;
    result.insertLeft = went_left;
    return result;
}

ContentTree::Node *
ContentTree::insertAt(const SearchResult &result, PageHandle handle)
{
    pf_assert(!result.match, "insertAt with a match present");
    Node *node = makeNode(handle);

    if (!result.parent) {
        pf_assert(_root == _nil, "insertAt at root of non-empty tree");
        _root = node;
    } else {
        Node *parent = result.parent;
        Node *&slot = result.insertLeft ? parent->left : parent->right;
        pf_assert(slot == _nil, "insertAt into occupied slot");
        slot = node;
        node->parent = parent;
    }

    ++_size;
    insertFixup(node);
    _accessor.retain(handle);
    return node;
}

ContentTree::Node *
ContentTree::insert(PageHandle handle, const CompareHook &hook)
{
    const std::uint8_t *data = _accessor.resolve(handle);
    pf_assert(data, "inserting an unresolvable handle");

    SearchResult result = search(data, hook);
    if (result.match)
        return nullptr;
    return insertAt(result, handle);
}

void
ContentTree::rotateLeft(Node *x)
{
    Node *y = x->right;
    x->right = y->left;
    if (y->left != _nil)
        y->left->parent = x;
    y->parent = x->parent;
    if (x->parent == _nil)
        _root = y;
    else if (x == x->parent->left)
        x->parent->left = y;
    else
        x->parent->right = y;
    y->left = x;
    x->parent = y;
}

void
ContentTree::rotateRight(Node *x)
{
    Node *y = x->left;
    x->left = y->right;
    if (y->right != _nil)
        y->right->parent = x;
    y->parent = x->parent;
    if (x->parent == _nil)
        _root = y;
    else if (x == x->parent->right)
        x->parent->right = y;
    else
        x->parent->left = y;
    y->right = x;
    x->parent = y;
}

void
ContentTree::insertFixup(Node *z)
{
    while (z->parent->red) {
        Node *gp = z->parent->parent;
        if (z->parent == gp->left) {
            Node *uncle = gp->right;
            if (uncle->red) {
                z->parent->red = false;
                uncle->red = false;
                gp->red = true;
                z = gp;
            } else {
                if (z == z->parent->right) {
                    z = z->parent;
                    rotateLeft(z);
                }
                z->parent->red = false;
                gp->red = true;
                rotateRight(gp);
            }
        } else {
            Node *uncle = gp->left;
            if (uncle->red) {
                z->parent->red = false;
                uncle->red = false;
                gp->red = true;
                z = gp;
            } else {
                if (z == z->parent->left) {
                    z = z->parent;
                    rotateRight(z);
                }
                z->parent->red = false;
                gp->red = true;
                rotateLeft(gp);
            }
        }
    }
    _root->red = false;
}

void
ContentTree::transplant(Node *u, Node *v)
{
    if (u->parent == _nil)
        _root = v;
    else if (u == u->parent->left)
        u->parent->left = v;
    else
        u->parent->right = v;
    v->parent = u->parent;
}

ContentTree::Node *
ContentTree::minimum(Node *node) const
{
    while (node->left != _nil)
        node = node->left;
    return node;
}

void
ContentTree::erase(Node *z)
{
    pf_assert(z && z != _nil, "erasing a null node");

    Node *y = z;
    Node *x;
    bool y_was_red = y->red;

    if (z->left == _nil) {
        x = z->right;
        transplant(z, z->right);
    } else if (z->right == _nil) {
        x = z->left;
        transplant(z, z->left);
    } else {
        y = minimum(z->right);
        y_was_red = y->red;
        x = y->right;
        if (y->parent == z) {
            x->parent = y;
        } else {
            transplant(y, y->right);
            y->right = z->right;
            y->right->parent = y;
        }
        transplant(z, y);
        y->left = z->left;
        y->left->parent = y;
        y->red = z->red;
    }

    if (!y_was_red)
        eraseFixup(x);

    _accessor.release(z->handle);
    freeNode(z);
    --_size;
    _nil->parent = _nil; // eraseFixup may have dirtied the sentinel
}

std::size_t
ContentTree::eraseIf(const std::function<bool(PageHandle)> &pred)
{
    // Collect first: erase(z) removes exactly node z (transplant moves
    // pointers, handles are never copied between nodes), so collected
    // pointers stay valid while the tree rebalances around them.
    // Iterative in-order walk, same rationale as destroySubtree.
    std::vector<Node *> victims;
    std::vector<Node *> stack;
    Node *walk = _root;
    while (walk != _nil || !stack.empty()) {
        while (walk != _nil) {
            stack.push_back(walk);
            walk = walk->left;
        }
        walk = stack.back();
        stack.pop_back();
        if (pred(walk->handle))
            victims.push_back(walk);
        walk = walk->right;
    }

    for (Node *node : victims)
        erase(node);
    return victims.size();
}

std::size_t
ContentTree::pruneStale()
{
    return eraseIf([this](PageHandle handle) {
        return _accessor.resolve(handle) == nullptr;
    });
}

void
ContentTree::eraseFixup(Node *x)
{
    while (x != _root && !x->red) {
        if (x == x->parent->left) {
            Node *w = x->parent->right;
            if (w->red) {
                w->red = false;
                x->parent->red = true;
                rotateLeft(x->parent);
                w = x->parent->right;
            }
            if (!w->left->red && !w->right->red) {
                w->red = true;
                x = x->parent;
            } else {
                if (!w->right->red) {
                    w->left->red = false;
                    w->red = true;
                    rotateRight(w);
                    w = x->parent->right;
                }
                w->red = x->parent->red;
                x->parent->red = false;
                w->right->red = false;
                rotateLeft(x->parent);
                x = _root;
            }
        } else {
            Node *w = x->parent->left;
            if (w->red) {
                w->red = false;
                x->parent->red = true;
                rotateRight(x->parent);
                w = x->parent->left;
            }
            if (!w->right->red && !w->left->red) {
                w->red = true;
                x = x->parent;
            } else {
                if (!w->left->red) {
                    w->right->red = false;
                    w->red = true;
                    rotateLeft(w);
                    w = x->parent->left;
                }
                w->red = x->parent->red;
                x->parent->red = false;
                w->left->red = false;
                rotateRight(x->parent);
                x = _root;
            }
        }
    }
    x->red = false;
}

ContentTree::Node *
ContentTree::root() const
{
    return _root == _nil ? nullptr : _root;
}

ContentTree::Node *
ContentTree::left(const Node *node) const
{
    return node->left == _nil ? nullptr : node->left;
}

ContentTree::Node *
ContentTree::right(const Node *node) const
{
    return node->right == _nil ? nullptr : node->right;
}

PageHandle
ContentTree::handle(const Node *node) const
{
    return node->handle;
}

void
ContentTree::forEach(const std::function<void(PageHandle)> &fn) const
{
    // Iterative in-order walk, same rationale as destroySubtree.
    std::vector<const Node *> stack;
    const Node *walk = _root;
    while (walk != _nil || !stack.empty()) {
        while (walk != _nil) {
            stack.push_back(walk);
            walk = walk->left;
        }
        walk = stack.back();
        stack.pop_back();
        fn(walk->handle);
        walk = walk->right;
    }
}

bool
ContentTree::validateNode(Node *node, int &black_height)
{
    if (node == _nil) {
        black_height = 1;
        return true;
    }

    if (node->red && (node->left->red || node->right->red)) {
        pf_warn(Ksm, "red-red violation");
        return false;
    }

    int lh = 0;
    int rh = 0;
    if (!validateNode(node->left, lh) || !validateNode(node->right, rh))
        return false;
    if (lh != rh) {
        pf_warn(Ksm, "black height mismatch: %d vs %d", lh, rh);
        return false;
    }

    // Content ordering: left subtree < node < right subtree, checked
    // locally against the children (sufficient given BST recursion on
    // live contents is not stable for the unstable tree; this is a
    // structural smoke check used by tests on static contents).
    const std::uint8_t *node_data = _accessor.resolve(node->handle);
    if (node_data) {
        if (node->left != _nil) {
            const std::uint8_t *ld = _accessor.resolve(node->left->handle);
            if (ld && comparePages(ld, node_data).sign >= 0) {
                pf_warn(Ksm, "ordering violation (left)");
                return false;
            }
        }
        if (node->right != _nil) {
            const std::uint8_t *rd =
                _accessor.resolve(node->right->handle);
            if (rd && comparePages(rd, node_data).sign <= 0) {
                pf_warn(Ksm, "ordering violation (right)");
                return false;
            }
        }
    }

    black_height = (node->red ? 0 : 1) + lh;
    return true;
}

bool
ContentTree::validate()
{
    if (_root == _nil)
        return true;
    if (_root->red) {
        pf_warn(Ksm, "red root");
        return false;
    }
    int height = 0;
    return validateNode(_root, height);
}

} // namespace pageforge
